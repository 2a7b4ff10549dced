"""Fig. 4 — median reconstruction error vs sampling fraction, four
panels: (p=1, ideal), (p=1, noisy), (p=2, ideal), (p=2, noisy).

Scaled from the paper's 12-30 qubits / 16 instances to 6-12 qubits / 3
instances so the sweep runs on a CPU (the scaling rationale is in
``repro/experiments/configs.py``).  The shape checks assert what
the paper's panels show: error decreases with sampling fraction and
stays small across qubit counts for p=1; p=2 errors are higher due to
the 4-D -> 2-D reshape."""

from __future__ import annotations

import numpy as np
import pytest
from _util import emit, format_table, once

from repro.experiments import ExperimentScale, run_fig4_sweep

SCALE = ExperimentScale(
    p1_resolution=(30, 60),
    p2_resolution=(7, 9),
    qubits_ideal=(8, 10, 12),
    qubits_noisy=(6, 8, 10),
    num_instances=3,
    sampling_fractions=(0.04, 0.06, 0.08),
)


def _emit_panel(name: str, points):
    rows = [
        [p.num_qubits, p.sampling_fraction, p.nrmse_q1, p.nrmse_median, p.nrmse_q3]
        for p in points
    ]
    emit(
        name,
        format_table(["#qubits", "fraction", "NRMSE q1", "NRMSE median", "NRMSE q3"], rows),
    )


@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
def test_fig4_p1(benchmark, noisy):
    points = once(benchmark, run_fig4_sweep, p=1, noisy=noisy, scale=SCALE, seed=0)
    _emit_panel(f"fig4_p1_{'noisy' if noisy else 'ideal'}", points)
    # Error decreases with fraction for every qubit count (allowing
    # small non-monotonic jitter as in the paper's quartile bands).
    for qubits in set(p.num_qubits for p in points):
        series = sorted(
            (p.sampling_fraction, p.nrmse_median)
            for p in points
            if p.num_qubits == qubits
        )
        assert series[-1][1] <= series[0][1] + 0.02
        assert series[-1][1] < 0.15


@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
def test_fig4_p2(benchmark, noisy):
    scale = ExperimentScale(
        p2_resolution=SCALE.p2_resolution,
        qubits_ideal=(6, 8),
        qubits_noisy=(6, 8),
        num_instances=2,
        sampling_fractions=(0.10, 0.20, 0.30),
    )
    points = once(benchmark, run_fig4_sweep, p=2, noisy=noisy, scale=scale, seed=0)
    _emit_panel(f"fig4_p2_{'noisy' if noisy else 'ideal'}", points)
    medians = np.array([p.nrmse_median for p in points])
    assert np.all(np.isfinite(medians))
    for qubits in set(p.num_qubits for p in points):
        series = sorted(
            (p.sampling_fraction, p.nrmse_median)
            for p in points
            if p.num_qubits == qubits
        )
        assert series[-1][1] <= series[0][1] + 0.05


def test_fig4_p2_errors_exceed_p1(benchmark):
    """The paper's observation: the reshape makes p=2 reconstruction
    harder than p=1 at matched fractions."""
    scale = ExperimentScale(
        p1_resolution=(30, 60),
        p2_resolution=(7, 9),
        qubits_ideal=(8,),
        num_instances=2,
        sampling_fractions=(0.08,),
    )
    def run():
        p1 = run_fig4_sweep(p=1, noisy=False, scale=scale, qubit_counts=(8,), seed=0)
        p2 = run_fig4_sweep(p=2, noisy=False, scale=scale, qubit_counts=(8,), seed=0)
        return p1, p2
    p1, p2 = once(benchmark, run)
    assert p2[0].nrmse_median > p1[0].nrmse_median
