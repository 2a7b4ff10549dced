"""Tests for adaptive sampling and parameter-transfer initialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz
from repro.initialization import transfer_initial_point
from repro.landscape import (
    AdaptiveConfig,
    LandscapeGenerator,
    OscarReconstructor,
    adaptive_reconstruct,
    cost_function,
    holdout_error_estimate,
    nrmse,
    qaoa_grid,
)
from repro.optimizers import Adam, CountingObjective
from repro.problems import random_3_regular_maxcut


# -- holdout estimate -----------------------------------------------------------


def test_holdout_estimate_tracks_true_error(ideal_generator, medium_grid):
    truth = ideal_generator.grid_search()
    for fraction in (0.06, 0.15):
        oscar = OscarReconstructor(medium_grid, rng=0)
        indices = oscar.sample_indices(fraction)
        values = ideal_generator.evaluate_indices(indices)
        reconstruction, _ = oscar.reconstruct_from_samples(indices, values)
        true_error = nrmse(truth.values, reconstruction.values)
        estimate, _ = holdout_error_estimate(
            oscar, indices, values, rng=np.random.default_rng(1)
        )
        # Same order of magnitude; the estimate must not be wildly off.
        assert 0.2 * true_error < estimate < 8.0 * true_error + 0.05


def test_holdout_estimate_validation(medium_grid):
    oscar = OscarReconstructor(medium_grid)
    with pytest.raises(ValueError):
        holdout_error_estimate(oscar, np.arange(4), np.zeros(4))


# -- adaptive loop -----------------------------------------------------------------


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(target_error=0.0)


def test_adaptive_meets_target(ideal_generator, medium_grid):
    truth = ideal_generator.grid_search()
    oscar = OscarReconstructor(medium_grid, rng=2)
    outcome = adaptive_reconstruct(
        oscar, ideal_generator, AdaptiveConfig(target_error=0.12)
    )
    assert outcome.met_target
    assert nrmse(truth.values, outcome.landscape.values) < 0.25
    # Fractions grow monotonically; estimates were recorded per round.
    assert len(outcome.error_estimates) == len(outcome.fractions)
    assert all(
        later >= earlier
        for earlier, later in zip(outcome.fractions, outcome.fractions[1:])
    )


def test_adaptive_uses_fewer_samples_for_loose_targets(ideal_generator, medium_grid):
    loose = adaptive_reconstruct(
        OscarReconstructor(medium_grid, rng=3),
        ideal_generator,
        AdaptiveConfig(target_error=0.5),
    )
    tight = adaptive_reconstruct(
        OscarReconstructor(medium_grid, rng=3),
        ideal_generator,
        AdaptiveConfig(target_error=0.08),
    )
    assert loose.report.num_samples <= tight.report.num_samples


def test_adaptive_respects_fraction_cap(ideal_generator, medium_grid):
    outcome = adaptive_reconstruct(
        OscarReconstructor(medium_grid, rng=4),
        ideal_generator,
        AdaptiveConfig(target_error=1e-9),
    )
    assert not outcome.met_target
    assert outcome.report.sampling_fraction <= 0.5 + 1e-9


def test_adaptive_samples_are_distinct(ideal_generator, medium_grid):
    oscar = OscarReconstructor(medium_grid, rng=5)
    outcome = adaptive_reconstruct(
        oscar, ideal_generator, AdaptiveConfig(target_error=0.05)
    )
    # num_samples counts distinct grid points only.
    assert outcome.report.num_samples <= medium_grid.size


# -- parameter transfer ---------------------------------------------------------------


def test_transfer_validation():
    with pytest.raises(ValueError):
        transfer_initial_point(donor_qubits=2)


def test_transfer_point_in_grid_bounds():
    outcome = transfer_initial_point(donor_qubits=6, donor_seed=0)
    grid = qaoa_grid(p=1)
    for (low, high), value in zip(grid.bounds, outcome.initial_point):
        assert low <= value <= high
    assert outcome.donor_executions > 0


def test_transferred_angles_concentrate():
    """QAOA angle concentration: donor-optimal angles are near-optimal
    for a larger instance of the same family."""
    outcome = transfer_initial_point(donor_qubits=6, donor_seed=0)
    target = random_3_regular_maxcut(12, seed=99)
    ansatz = QaoaAnsatz(target, p=1)
    transferred_value = ansatz.expectation(outcome.initial_point)
    # Compare against the target's own dense-grid optimum.
    grid = qaoa_grid(p=1, resolution=(16, 32))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    best, _ = generator.grid_search().minimum()
    spread = np.ptp(generator.grid_search().values)
    assert transferred_value < best + 0.25 * spread


def test_transfer_beats_random_for_adam():
    """Head-to-head with the Sec. 8 baseline: transferred angles cut
    query counts like OSCAR angles do."""
    target = random_3_regular_maxcut(10, seed=7)
    ansatz = QaoaAnsatz(target, p=1)
    grid = qaoa_grid(p=1, resolution=(16, 32))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    outcome = transfer_initial_point(donor_qubits=6, donor_seed=0)

    counting_transfer = CountingObjective(generator.evaluate_point)
    Adam(maxiter=300, tolerance=1e-3, gradient_tolerance=5e-3).minimize(
        counting_transfer, outcome.initial_point
    )
    rng = np.random.default_rng(11)
    counting_random = CountingObjective(generator.evaluate_point)
    Adam(maxiter=300, tolerance=1e-3, gradient_tolerance=5e-3).minimize(
        counting_random,
        np.array([rng.uniform(low, high) for low, high in grid.bounds]),
    )
    assert counting_transfer.num_queries <= counting_random.num_queries
