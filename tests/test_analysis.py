"""Tests for the landscape-analysis module (barren plateaus, basins,
initial-point quality, convergence checking)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.landscape import (
    GridAxis,
    Landscape,
    ParameterGrid,
    barren_plateau_fraction,
    basin_labels,
    check_convergence,
    find_local_minima,
    gradient_field,
    gradient_magnitudes,
    initial_point_quality,
)


def make_landscape(function, nx=21, ny=21, x_range=(-2.0, 2.0), y_range=(-2.0, 2.0)):
    grid = ParameterGrid(
        [GridAxis("x", *x_range, nx), GridAxis("y", *y_range, ny)]
    )
    xs, ys = np.meshgrid(*grid.axis_values, indexing="ij")
    return Landscape(grid, function(xs, ys))


@pytest.fixture
def bowl():
    """A single-basin quadratic bowl centred at the origin."""
    return make_landscape(lambda x, y: x**2 + y**2)


@pytest.fixture
def double_well():
    """Two basins: minima near x = -1 and x = +1."""
    return make_landscape(lambda x, y: (x**2 - 1.0) ** 2 + 0.5 * y**2)


def test_gradient_field_of_linear_ramp():
    landscape = make_landscape(lambda x, y: 3.0 * x + 0.0 * y)
    gx, gy = gradient_field(landscape)
    assert np.allclose(gx, 3.0)
    assert np.allclose(gy, 0.0)


def test_gradient_magnitudes_zero_at_bowl_center(bowl):
    magnitudes = gradient_magnitudes(bowl)
    center = np.unravel_index(np.argmin(bowl.values), bowl.values.shape)
    assert magnitudes[center] == pytest.approx(0.0, abs=1e-9)
    assert magnitudes.max() > 1.0


def test_barren_plateau_fraction_flat_vs_structured():
    flat = make_landscape(lambda x, y: 0.001 * np.sin(x))
    structured = make_landscape(lambda x, y: np.sin(3 * x) * np.cos(3 * y))
    # The threshold is relative, so a *uniformly* scaled landscape is
    # not a plateau — but a landscape that is flat across most of its
    # area with one sharp feature is.
    spiked = make_landscape(
        lambda x, y: np.exp(-20.0 * (x**2 + y**2))
    )
    assert barren_plateau_fraction(spiked) > 0.5
    assert barren_plateau_fraction(structured) < 0.3


def test_barren_plateau_fraction_constant_landscape_is_one():
    landscape = make_landscape(lambda x, y: np.full_like(x, 2.0))
    assert barren_plateau_fraction(landscape) == 1.0


def test_find_local_minima_bowl_has_one(bowl):
    minima = find_local_minima(bowl)
    assert len(minima) == 1
    point, value = minima[0]
    assert np.allclose(point, [0.0, 0.0], atol=0.11)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_find_local_minima_double_well_has_two(double_well):
    minima = find_local_minima(double_well)
    assert len(minima) == 2
    xs = sorted(point[0] for point, _ in minima)
    assert xs[0] == pytest.approx(-1.0, abs=0.11)
    assert xs[1] == pytest.approx(1.0, abs=0.11)


def test_basin_labels_bowl_single_basin(bowl):
    labels = basin_labels(bowl)
    assert len(np.unique(labels)) == 1


def test_basin_labels_double_well_two_basins(double_well):
    labels = basin_labels(double_well)
    assert len(np.unique(labels)) == 2


def test_initial_point_quality_at_optimum(bowl):
    report = initial_point_quality(bowl, np.array([0.0, 0.0]))
    assert report.percentile == pytest.approx(0.0)
    assert report.in_global_basin
    assert report.distance_to_optimum < 0.15


def test_initial_point_quality_bad_point(double_well):
    # In the non-global... both wells are equal depth here; perturb to
    # make the right well deeper.
    tilted = double_well.with_values(
        double_well.values
        + 0.2 * np.meshgrid(*double_well.grid.axis_values, indexing="ij")[0]
    )
    report = initial_point_quality(tilted, np.array([1.5, 1.5]))
    assert report.percentile > 0.5
    assert not report.in_global_basin


def test_check_convergence_global(bowl):
    path = np.array([[1.5, 1.5], [0.5, 0.5], [0.05, 0.02]])
    report = check_convergence(bowl, path)
    assert report.converged_to_global_basin
    assert not report.stuck_in_local_minimum
    assert report.excess_over_minimum < 0.1


def test_check_convergence_detects_local_trap(double_well):
    tilted = double_well.with_values(
        double_well.values
        + 0.2 * np.meshgrid(*double_well.grid.axis_values, indexing="ij")[0]
    )
    # Global minimum now near x = -1; an optimizer that ended at x = +1
    # is stuck in the local well.
    path = np.array([[1.8, 0.5], [1.2, 0.1], [0.95, 0.0]])
    report = check_convergence(tilted, path)
    assert not report.converged_to_global_basin
    assert report.stuck_in_local_minimum


def test_check_convergence_on_qaoa_reconstruction(qaoa6, medium_grid):
    """End-to-end: OSCAR reconstruction + optimizer + convergence check."""
    from repro.landscape import LandscapeGenerator, OscarReconstructor, cost_function
    from repro.optimizers import Cobyla

    generator = LandscapeGenerator(cost_function(qaoa6), medium_grid)
    reconstruction, _ = OscarReconstructor(medium_grid, rng=0).reconstruct(
        generator, 0.12
    )
    result = Cobyla(maxiter=300).minimize(
        generator.evaluate_point, np.array([0.1, 0.5])
    )
    report = check_convergence(reconstruction, result.path)
    assert np.isfinite(report.endpoint_value)
    assert report.excess_over_minimum < np.ptp(reconstruction.values)
