"""Tests for the remaining experiment runner branches."""

from __future__ import annotations

import numpy as np

from repro.experiments.ncm_study import run_table5
from repro.experiments.speedup import measure_speedup
from repro.landscape import (
    LandscapeGenerator,
    OscarReconstructor,
    cost_function,
    qaoa_grid,
)
from repro.ansatz import QaoaAnsatz
from repro.problems import random_3_regular_maxcut


# -- runner branches ----------------------------------------------------------------


def test_speedup_fallback_when_target_unreachable():
    result = measure_speedup(
        num_qubits=6,
        resolution=(12, 24),
        target_nrmse=1e-9,  # unreachable
        fractions=(0.05, 0.10),
        seed=0,
    )
    assert result.achieved_nrmse > result.target_nrmse
    assert result.fraction in (0.05, 0.10)


def test_run_table5_single_pair_smoke():
    rows = run_table5(
        pairs=(("noisy-sim-i", "noisy-sim-ii"),),
        num_qubits=6,
        resolution=(12, 24),
        splits=(0.5,),
        total_fraction=0.15,
        shots=None,
        seed=0,
    )
    (row,) = rows
    assert row.qpu1 == "noisy-sim-i"
    oscar_error, ncm_error = row.split_errors[0.5]
    assert ncm_error <= oscar_error + 1e-9
    assert np.isfinite(row.qpu1_only_error)


def test_full_pipeline_reproducibility():
    """Same seeds -> bitwise-identical reconstruction, end to end."""
    def run():
        problem = random_3_regular_maxcut(8, seed=0)
        ansatz = QaoaAnsatz(problem, p=1)
        grid = qaoa_grid(p=1, resolution=(16, 32))
        generator = LandscapeGenerator(cost_function(ansatz), grid)
        oscar = OscarReconstructor(grid, rng=42)
        landscape, report = oscar.reconstruct(generator, 0.1)
        return landscape.values, report.num_samples

    values_a, samples_a = run()
    values_b, samples_b = run()
    assert samples_a == samples_b
    assert np.array_equal(values_a, values_b)


def test_full_3d_uccsd_landscape_reconstruction():
    """A 3-parameter UCCSD landscape reconstructs through the odd-dim
    balanced concatenation reshape."""
    from repro.ansatz import UccsdAnsatz
    from repro.landscape import GridAxis, ParameterGrid
    from repro.landscape import nrmse as _nrmse
    from repro.problems import h2_hamiltonian

    ansatz = UccsdAnsatz(h2_hamiltonian(), num_parameters=3)
    grid = ParameterGrid(
        [GridAxis(name, -np.pi, np.pi, 8) for name in ansatz.parameter_names()]
    )
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    truth = generator.grid_search()
    oscar = OscarReconstructor(grid, rng=0)
    reconstruction, report = oscar.reconstruct(generator, 0.3)
    assert reconstruction.values.shape == (8, 8, 8)
    assert _nrmse(truth.values, reconstruction.values) < 0.5
