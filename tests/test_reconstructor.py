"""Tests for OscarReconstructor — the headline end-to-end API."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import QaoaAnsatz
from repro.cs import ReconstructionConfig
from repro.landscape import (
    LandscapeGenerator,
    OscarReconstructor,
    cost_function,
    nrmse,
    qaoa_grid,
)
from repro.problems import random_3_regular_maxcut


def test_reconstruction_beats_nrmse_bar(ideal_generator, medium_grid):
    """10% sampling on the medium grid must reach NRMSE < 0.1 — the
    regime of the paper's Fig. 4."""
    truth = ideal_generator.grid_search()
    oscar = OscarReconstructor(medium_grid, rng=0)
    reconstruction, report = oscar.reconstruct(ideal_generator, 0.10)
    assert nrmse(truth.values, reconstruction.values) < 0.1
    assert report.speedup > 5.0


def test_error_decreases_with_fraction(ideal_generator, medium_grid):
    truth = ideal_generator.grid_search()
    errors = []
    for fraction in (0.05, 0.10, 0.25):
        oscar = OscarReconstructor(medium_grid, rng=1)
        reconstruction, _ = oscar.reconstruct(ideal_generator, fraction)
        errors.append(nrmse(truth.values, reconstruction.values))
    assert errors[2] < errors[0]


def test_report_accounting(ideal_generator, medium_grid):
    oscar = OscarReconstructor(medium_grid, rng=2)
    reconstruction, report = oscar.reconstruct(ideal_generator, 0.10)
    assert report.grid_size == medium_grid.size
    assert report.num_samples == int(round(0.10 * medium_grid.size))
    assert report.sampling_fraction == pytest.approx(0.10, abs=0.01)
    assert report.speedup == pytest.approx(
        medium_grid.size / report.num_samples
    )
    assert reconstruction.circuit_executions == report.num_samples


def test_reconstruct_from_samples_matches_reconstruct(ideal_generator, medium_grid):
    """Splitting sampling and reconstruction gives identical output."""
    oscar_a = OscarReconstructor(medium_grid, rng=3)
    land_a, _ = oscar_a.reconstruct(ideal_generator, 0.1)
    oscar_b = OscarReconstructor(medium_grid, rng=3)
    indices = oscar_b.sample_indices(0.1)
    values = ideal_generator.evaluate_indices(indices)
    land_b, _ = oscar_b.reconstruct_from_samples(indices, values)
    assert np.allclose(land_a.values, land_b.values)


def test_stratified_sampler_option(ideal_generator, medium_grid):
    truth = ideal_generator.grid_search()
    oscar = OscarReconstructor(medium_grid, sampler="stratified", rng=4)
    reconstruction, _ = oscar.reconstruct(ideal_generator, 0.12)
    assert nrmse(truth.values, reconstruction.values) < 0.15


def test_unknown_sampler_raises(medium_grid):
    with pytest.raises(ValueError):
        OscarReconstructor(medium_grid, sampler="sobol")


def test_mismatched_samples_raise(medium_grid):
    oscar = OscarReconstructor(medium_grid)
    with pytest.raises(ValueError):
        oscar.reconstruct_from_samples(np.array([0, 1]), np.array([1.0]))


def test_p2_reshaped_reconstruction():
    """4-D grids reconstruct through the 2-D concatenation reshape."""
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=2)
    grid = qaoa_grid(p=2, resolution=(6, 7))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    truth = generator.grid_search()
    oscar = OscarReconstructor(grid, rng=5)
    reconstruction, report = oscar.reconstruct(generator, 0.25)
    assert reconstruction.values.shape == grid.shape
    error = nrmse(truth.values, reconstruction.values)
    # p=2 reshaping introduces artificial patterns (paper Sec. 4.2.4);
    # accuracy is lower than p=1 but must still be informative.
    assert error < 0.5


def test_rng_seeding_reproducible(ideal_generator, medium_grid):
    land1, _ = OscarReconstructor(medium_grid, rng=7).reconstruct(
        ideal_generator, 0.1
    )
    land2, _ = OscarReconstructor(medium_grid, rng=7).reconstruct(
        ideal_generator, 0.1
    )
    assert np.allclose(land1.values, land2.values)


def test_custom_config_omp_solver(ideal_generator, medium_grid):
    config = ReconstructionConfig(solver="omp", max_atoms=60)
    truth = ideal_generator.grid_search()
    oscar = OscarReconstructor(medium_grid, config=config, rng=8)
    reconstruction, _ = oscar.reconstruct(ideal_generator, 0.15)
    assert nrmse(truth.values, reconstruction.values) < 0.3


@settings(deadline=None, max_examples=1)
@given(seed=st.integers(0, 3))
def test_p3_reconstruction_runs(seed):
    problem = random_3_regular_maxcut(4, seed=seed)
    ansatz = QaoaAnsatz(problem, p=3)
    grid = qaoa_grid(p=3, resolution=(4, 5))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    truth = generator.grid_search()
    oscar = OscarReconstructor(grid, rng=seed)
    reconstruction, report = oscar.reconstruct(generator, 0.3)
    assert reconstruction.values.shape == grid.shape
    error = nrmse(truth.values, reconstruction.values)
    assert np.isfinite(error)
    # 6-D reshaping is hard; just require an informative reconstruction.
    assert error < 1.0
