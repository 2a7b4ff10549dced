"""Smoke tests for the experiment runners (tiny scales).

These verify every table/figure runner executes end-to-end and that the
qualitative relationships the paper reports hold at reduced scale.  The
benchmarks regenerate the full (scaled) artifacts; here we only pin the
invariants.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import (
    SMOKE,
    measure_speedup,
    run_endpoint_distance_study,
    run_fig4_sweep,
    run_fig6_sycamore,
    run_fig8_sweep,
    run_mitigation_study,
    run_optimizer_choice,
    run_table2,
    run_table4,
    run_table6_initialization,
    slice_reconstruction_error,
)
from repro.experiments.slices import random_slice, slice_generator
from repro.experiments.tables import run_table3
from repro.ansatz import QaoaAnsatz
from repro.problems import random_3_regular_maxcut


# -- slices ----------------------------------------------------------------------


def test_random_slice_structure():
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=3)
    rng = np.random.default_rng(0)
    spec = random_slice(ansatz, points_per_axis=7, rng=rng)
    assert spec.grid.shape == (7, 7)
    assert 0 <= spec.varying[0] < spec.varying[1] < 6
    assert spec.fixed_values.shape == (6,)


def test_random_slice_needs_two_parameters():
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
    spec = random_slice(ansatz, points_per_axis=5)
    assert spec.varying == (0, 1)


def test_slice_generator_freezes_other_parameters():
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=2)
    rng = np.random.default_rng(1)
    spec = random_slice(ansatz, points_per_axis=5, rng=rng)
    generator = slice_generator(ansatz, spec)
    point = spec.grid.point_from_flat(7)
    full = spec.fixed_values.copy()
    full[spec.varying[0]] = point[0]
    full[spec.varying[1]] = point[1]
    assert generator.evaluate_point(point) == pytest.approx(ansatz.expectation(full))


def test_slice_reconstruction_error_returns_medians():
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=2)
    error, sparsity = slice_reconstruction_error(
        ansatz, points_per_axis=9, repeats=2, seed=0
    )
    assert error >= 0.0
    assert 0.0 < sparsity <= 1.0


# -- tables ---------------------------------------------------------------------------


def test_table2_rows_structure():
    rows = run_table2(repeats=1, seed=0)
    assert len(rows) == 8  # 4 cases x 2 ansatzes
    for row in rows:
        assert row.nrmse >= 0.0
        assert row.ansatz in ("QAOA", "Two-local")


def test_table3_rows_structure():
    rows = run_table3(repeats=1, seed=0)
    assert len(rows) == 5
    molecules = {row.problem for row in rows}
    assert molecules == {"H2", "LiH"}


def test_table3_denser_slice_reduces_uccsd_error():
    """The paper's H2/UCCSD rows: error collapses from 14 to 50 points."""
    rows = run_table3(repeats=2, seed=1)
    h2_uccsd = [r for r in rows if r.problem == "H2" and r.ansatz == "UCCSD"]
    coarse = next(r for r in h2_uccsd if r.points_per_axis == 14)
    fine = next(r for r in h2_uccsd if r.points_per_axis == 50)
    assert fine.nrmse < coarse.nrmse


def test_table4_sparsity_rows():
    rows = run_table4(repeats=1, seed=0)
    assert len(rows) == 12
    for row in rows:
        assert 0.0 < row.dct_sparsity <= 1.0
        assert math.isnan(row.nrmse)
    # The headline claim: landscapes are sparse.
    assert np.median([row.dct_sparsity for row in rows]) < 0.25


# -- figure sweeps ----------------------------------------------------------------------


def test_fig4_error_decreases_with_fraction():
    points = run_fig4_sweep(p=1, noisy=False, scale=SMOKE, qubit_counts=(6,), seed=0)
    by_fraction = {p.sampling_fraction: p.nrmse_median for p in points}
    fractions = sorted(by_fraction)
    assert by_fraction[fractions[-1]] <= by_fraction[fractions[0]] + 0.02
    for p in points:
        assert p.nrmse_q1 <= p.nrmse_median <= p.nrmse_q3


def test_fig4_noisy_path_runs():
    points = run_fig4_sweep(p=1, noisy=True, scale=SMOKE, qubit_counts=(6,), seed=0)
    assert all(np.isfinite(p.nrmse_median) for p in points)


def test_fig4_p2_reshape_runs():
    points = run_fig4_sweep(p=2, noisy=False, scale=SMOKE, qubit_counts=(6,), seed=0)
    assert all(p.p == 2 for p in points)
    assert all(np.isfinite(p.nrmse_median) for p in points)


def test_fig6_sycamore_curves_decrease():
    curves = run_fig6_sycamore(fractions=(0.1, 0.4), seed=0)
    assert set(curves) == {"mesh", "3-regular", "sk"}
    for series in curves.values():
        assert series[-1][1] < series[0][1]


def test_fig8_compensation_helps():
    points = run_fig8_sweep(
        qubit_counts=(8,),
        qpu1_shares=(0.2,),
        resolution=(20, 40),
        total_fraction=0.12,
        seed=0,
    )
    (point,) = points
    assert point.nrmse_compensated < point.nrmse_uncompensated


def test_mitigation_study_preserves_richardson_roughness():
    landscapes, rows = run_mitigation_study(
        num_qubits=6, resolution=(16, 32), shots=512, sampling_fraction=0.2, seed=0
    )
    def metric(setting, source):
        return next(
            r.second_derivative
            for r in rows
            if r.setting == setting and r.source == source
        )
    # Richardson is roughest in the original and stays roughest in the
    # reconstruction (the Fig. 10 takeaway).
    assert metric("richardson", "original") > metric("linear", "original")
    assert metric("richardson", "reconstructed") > metric("linear", "reconstructed")
    assert set(landscapes.original) == {"unmitigated", "richardson", "linear"}


def test_endpoint_distance_study_small():
    results = run_endpoint_distance_study(
        optimizers=("cobyla",),
        noisy_settings=(False,),
        num_qubits=6,
        num_instances=2,
        resolution=(16, 32),
        sampling_fraction=0.15,
        seed=0,
    )
    assert len(results) == 2
    grid_diameter = np.hypot(np.pi / 2, np.pi)
    for r in results:
        assert r.distance < grid_diameter


def test_optimizer_choice_runs():
    outcomes = run_optimizer_choice(
        num_qubits=6, resolution=(16, 32), shots=256, sampling_fraction=0.2, seed=0
    )
    names = {o.optimizer for o in outcomes}
    assert names == {"adam", "cobyla"}
    for o in outcomes:
        assert np.isfinite(o.final_value)
        assert o.path.shape[0] >= 2


def test_table6_runs_and_oscar_helps_adam():
    rows = run_table6_initialization(
        optimizers=("adam",),
        noisy_settings=(False,),
        num_qubits=6,
        num_instances=2,
        sampling_fraction=0.1,
        seed=0,
    )
    (row,) = rows
    assert row.oscar_init_queries <= row.random_init_queries


def test_speedup_measurement():
    result = measure_speedup(
        num_qubits=6, resolution=(20, 40), target_nrmse=0.1, seed=0
    )
    assert result.speedup > 2.0
    assert result.oscar_executions < result.grid_executions
