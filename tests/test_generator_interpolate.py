"""Tests for landscape generation and spline interpolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz
from repro.landscape import (
    GridAxis,
    InterpolatedLandscape,
    Landscape,
    LandscapeGenerator,
    ParameterGrid,
    cost_function,
    qaoa_grid,
)
from repro.problems import random_3_regular_maxcut


# -- generator ---------------------------------------------------------------


def test_grid_search_evaluates_every_point(qaoa6, small_grid):
    generator = LandscapeGenerator(cost_function(qaoa6), small_grid)
    truth = generator.grid_search()
    assert truth.values.shape == small_grid.shape
    assert truth.circuit_executions == small_grid.size
    # Spot-check individual points.
    for flat in (0, 100, 511):
        point = small_grid.point_from_flat(flat)
        assert truth.flat()[flat] == pytest.approx(qaoa6.expectation(point))


def test_evaluate_indices_matches_grid_search(qaoa6, small_grid):
    generator = LandscapeGenerator(cost_function(qaoa6), small_grid)
    truth = generator.grid_search()
    indices = np.array([3, 77, 200, 450])
    values = generator.evaluate_indices(indices)
    assert np.allclose(values, truth.flat()[indices])


def test_evaluate_point_off_grid(qaoa6, small_grid):
    generator = LandscapeGenerator(cost_function(qaoa6), small_grid)
    point = np.array([0.123, -0.456])
    assert generator.evaluate_point(point) == pytest.approx(qaoa6.expectation(point))


def test_cost_function_with_noise_settings(qaoa6, mild_noise):
    ideal = cost_function(qaoa6)
    noisy = cost_function(qaoa6, noise=mild_noise)
    point = np.array([0.2, 0.4])
    assert ideal(point) != noisy(point)


# -- interpolation --------------------------------------------------------------


@pytest.fixture
def smooth_landscape():
    """An analytically known smooth surface on a 2-D grid."""
    grid = ParameterGrid(
        [GridAxis("x", 0.0, 1.0, 20), GridAxis("y", 0.0, 2.0, 25)]
    )
    xs, ys = np.meshgrid(*grid.axis_values, indexing="ij")
    values = np.sin(2 * xs) * np.cos(ys)
    return Landscape(grid, values)


def test_interpolation_exact_at_grid_nodes(smooth_landscape):
    surrogate = InterpolatedLandscape(smooth_landscape)
    grid = smooth_landscape.grid
    for flat in (0, 57, 311, 499):
        point = grid.point_from_flat(flat)
        assert surrogate(point) == pytest.approx(
            smooth_landscape.flat()[flat], abs=1e-9
        )


def test_interpolation_accurate_off_grid(smooth_landscape):
    surrogate = InterpolatedLandscape(smooth_landscape)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.95)
        assert surrogate([x, y]) == pytest.approx(
            np.sin(2 * x) * np.cos(y), abs=5e-4
        )


def test_interpolation_clamps_out_of_bounds(smooth_landscape):
    surrogate = InterpolatedLandscape(smooth_landscape)
    inside = surrogate([1.0, 2.0])
    outside = surrogate([5.0, 9.0])
    assert outside == pytest.approx(inside)


def test_query_counting(smooth_landscape):
    surrogate = InterpolatedLandscape(smooth_landscape)
    for _ in range(7):
        surrogate([0.5, 0.5])
    assert surrogate.query_count == 7


def test_interpolation_wrong_arity_raises(smooth_landscape):
    surrogate = InterpolatedLandscape(smooth_landscape)
    with pytest.raises(ValueError):
        surrogate([0.1, 0.2, 0.3])


def test_generic_interpolator_for_4d():
    grid = qaoa_grid(p=2, resolution=(4, 5))
    rng = np.random.default_rng(1)
    values = rng.normal(size=grid.shape)
    landscape = Landscape(grid, values)
    surrogate = InterpolatedLandscape(landscape)
    flat = 123
    point = grid.point_from_flat(flat)
    assert surrogate(point) == pytest.approx(landscape.flat()[flat], abs=1e-4)


def test_qaoa_interpolation_tracks_circuit(qaoa6):
    """Interpolated reconstructed landscape ~ true cost function — the
    property the optimizer use case relies on."""
    grid = qaoa_grid(p=1, resolution=(20, 40))
    generator = LandscapeGenerator(cost_function(qaoa6), grid)
    truth = generator.grid_search()
    surrogate = InterpolatedLandscape(truth)
    rng = np.random.default_rng(2)
    for _ in range(10):
        point = np.array(
            [rng.uniform(-np.pi / 4, np.pi / 4), rng.uniform(-np.pi / 2, np.pi / 2)]
        )
        assert surrogate(point) == pytest.approx(
            qaoa6.expectation(point), abs=0.05
        )
