"""Tests for OSCAR-based optimizer initialization (Sec. 8)."""

from __future__ import annotations

import numpy as np

from repro.initialization import OscarInitializer, random_initial_point
from repro.landscape import OscarReconstructor
from repro.optimizers import Adam, Cobyla


def test_random_initial_point_within_bounds():
    rng = np.random.default_rng(0)
    bounds = [(-1.0, 1.0), (0.0, 5.0)]
    for _ in range(20):
        point = random_initial_point(bounds, rng)
        assert -1.0 <= point[0] <= 1.0
        assert 0.0 <= point[1] <= 5.0


def test_initializer_finds_good_point(ideal_generator, medium_grid, qaoa6):
    initializer = OscarInitializer(
        OscarReconstructor(medium_grid, rng=0),
        Cobyla(maxiter=200),
        sampling_fraction=0.12,
        rng=0,
    )
    outcome = initializer.choose(ideal_generator)
    # The chosen point must be in bounds.
    for (low, high), value in zip(medium_grid.bounds, outcome.initial_point):
        assert low <= value <= high
    # And near-optimal: within the top few percent of the true landscape.
    truth = ideal_generator.grid_search()
    true_min = truth.values.min()
    spread = truth.values.max() - true_min
    value_at_choice = qaoa6.expectation(outcome.initial_point)
    assert value_at_choice < true_min + 0.15 * spread


def test_initializer_cost_ledger(ideal_generator, medium_grid):
    initializer = OscarInitializer(
        OscarReconstructor(medium_grid, rng=1),
        Cobyla(maxiter=100),
        sampling_fraction=0.10,
        rng=1,
    )
    outcome = initializer.choose(ideal_generator)
    expected_samples = int(round(0.10 * medium_grid.size))
    assert outcome.reconstruction_queries == expected_samples
    assert outcome.surrogate_queries > 0
    assert np.isfinite(outcome.landscape_value)
    assert outcome.landscape.values.shape == medium_grid.shape


def test_initializer_reuses_existing_landscape(ideal_generator, medium_grid):
    reconstructor = OscarReconstructor(medium_grid, rng=2)
    landscape, report = reconstructor.reconstruct(ideal_generator, 0.12)
    initializer = OscarInitializer(
        reconstructor, Adam(maxiter=100), rng=2
    )
    outcome = initializer.choose_from_landscape(landscape, report.num_samples)
    assert outcome.reconstruction_queries == report.num_samples


def test_oscar_init_reduces_adam_queries(ideal_generator, medium_grid):
    """The Table 6 effect: refinement from the OSCAR point converges in
    fewer circuit queries than from a random point."""
    from repro.optimizers import CountingObjective

    rng = np.random.default_rng(3)
    random_start = random_initial_point(medium_grid.bounds, rng)
    counting = CountingObjective(ideal_generator.evaluate_point)
    Adam(maxiter=300).minimize(counting, random_start)
    random_queries = counting.num_queries

    initializer = OscarInitializer(
        OscarReconstructor(medium_grid, rng=3),
        Adam(maxiter=300),
        sampling_fraction=0.10,
        rng=3,
    )
    outcome = initializer.choose(ideal_generator)
    counting = CountingObjective(ideal_generator.evaluate_point)
    Adam(maxiter=300).minimize(counting, outcome.initial_point)
    assert counting.num_queries <= random_queries
