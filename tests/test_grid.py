"""Tests for parameter grids (including the paper's Table 1 shapes)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.landscape import GridAxis, ParameterGrid, qaoa_grid, validate_flat_indices


def test_axis_validation():
    with pytest.raises(ValueError):
        GridAxis("x", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        GridAxis("x", 1.0, 0.0, 5)


def test_axis_values_and_step():
    axis = GridAxis("x", 0.0, 1.0, 5)
    assert np.allclose(axis.values, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert axis.step == pytest.approx(0.25)


def test_grid_needs_axes():
    with pytest.raises(ValueError):
        ParameterGrid([])


def test_table1_p1_grid():
    """Paper Table 1: p=1 is 50 x 100 = 5k points over the stated ranges."""
    grid = qaoa_grid(p=1)
    assert grid.shape == (50, 100)
    assert grid.size == 5000
    assert grid.axes[0].low == pytest.approx(-math.pi / 4)
    assert grid.axes[0].high == pytest.approx(math.pi / 4)
    assert grid.axes[1].low == pytest.approx(-math.pi / 2)
    assert grid.axes[1].high == pytest.approx(math.pi / 2)


def test_table1_p2_grid():
    """Paper Table 1: p=2 is 12^2 x 15^2 = 32.4k points."""
    grid = qaoa_grid(p=2)
    assert grid.shape == (12, 12, 15, 15)
    assert grid.size == 32400
    assert grid.axes[0].low == pytest.approx(-math.pi / 8)
    assert grid.axes[2].low == pytest.approx(-math.pi / 4)


def test_qaoa_grid_custom_resolution_and_ranges():
    """A custom resolution keeps the Table 1 ranges."""
    grid = qaoa_grid(p=1, resolution=(10, 20))
    assert grid.shape == (10, 20)
    assert grid.axes[0].low == -math.pi / 4
    assert grid.axes[1].high == math.pi / 2


def test_qaoa_grid_p_validation():
    with pytest.raises(ValueError):
        qaoa_grid(p=0)


def test_point_and_flat_roundtrip():
    grid = qaoa_grid(p=1, resolution=(5, 7))
    for flat in (0, 6, 17, 34):
        point = grid.point_from_flat(flat)
        assert grid.nearest_flat_index(point) == flat


def test_points_from_flat_vectorised():
    grid = qaoa_grid(p=1, resolution=(5, 7))
    flats = np.array([0, 3, 20])
    batch = grid.points_from_flat(flats)
    assert batch.shape == (3, 2)
    for row, flat in zip(batch, flats):
        assert np.allclose(row, grid.point_from_flat(flat))


def test_points_from_flat_checks_indices():
    """``points_from_flat`` runs the library's one index check:
    fractional indices are refused, not truncated to the points below
    them, and a negative index names itself."""
    grid = qaoa_grid(p=1, resolution=(5, 7))
    with pytest.raises(ValueError, match="integers"):
        grid.points_from_flat([1.5, 2.9])
    with pytest.raises(ValueError, match="negative"):
        grid.points_from_flat([-1])


def test_point_arity_validation():
    grid = qaoa_grid(p=1, resolution=(5, 7))
    with pytest.raises(ValueError):
        grid.point([1])
    with pytest.raises(ValueError):
        grid.nearest_flat_index([0.1])


def test_iter_points_covers_grid():
    grid = qaoa_grid(p=1, resolution=(3, 4))
    points = list(grid.iter_points())
    assert len(points) == 12
    assert points[0][0] == 0
    assert points[-1][0] == 11


def test_validate_flat_indices_accepts_in_range():
    flat = validate_flat_indices(35, [0, 34, 7])
    assert flat.dtype == np.int64
    np.testing.assert_array_equal(flat, [0, 34, 7])
    assert validate_flat_indices(35, []).size == 0


def test_validate_flat_indices_rejects_negative():
    """Negative flat indices would silently wrap to the end of the
    grid under fancy indexing — they must raise instead."""
    with pytest.raises(ValueError, match="negative"):
        validate_flat_indices(35, [3, -1, 5])
    with pytest.raises(ValueError, match="negative"):
        validate_flat_indices(35, [-35])


def test_validate_flat_indices_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        validate_flat_indices(35, [0, 35])
    with pytest.raises(ValueError, match="out of range"):
        validate_flat_indices(35, [10**9])


@pytest.mark.parametrize(
    "indices",
    [[1.5, 2.9], np.array([1.0, 2.0]), [True, False], ["3", "4"]],
    ids=["float-list", "float-array", "bool-list", "string-list"],
)
def test_validate_flat_indices_refuses_non_integers(indices):
    """Float, bool and string indices are refused, never truncated to
    the grid points they round down to."""
    with pytest.raises(ValueError, match="integers"):
        validate_flat_indices(35, indices)


def test_library_index_paths_refuse_float_indices():
    """The generator and both reconstruction paths refuse
    ``[1.5, 2.9]`` instead of evaluating or solving grid points 1 and 2
    (the wire has refused it since the request-integer checks)."""
    from repro.cs.reconstruct import validate_sample_set
    from repro.landscape import LandscapeGenerator, OscarReconstructor

    grid = qaoa_grid(p=1, resolution=(4, 4))
    indices, values = np.array([1.5, 2.9]), np.ones(2)
    with pytest.raises(ValueError, match="integers"):
        LandscapeGenerator(lambda point: 0.0, grid).evaluate_indices([1.5, 2.9])
    with pytest.raises(ValueError, match="problem 0: flat indices must be integers"):
        validate_sample_set(grid.size, indices, values, context="problem 0")
    with pytest.raises(ValueError, match="integers"):
        OscarReconstructor(grid).reconstruct_many([(indices, values)])
    with pytest.raises(ValueError, match="integers"):
        OscarReconstructor(grid).reconstruct_from_samples(indices, values)


def test_generator_evaluate_indices_validates():
    from repro.landscape import LandscapeGenerator

    grid = qaoa_grid(p=1, resolution=(5, 7))
    generator = LandscapeGenerator(lambda point: 0.0, grid)
    with pytest.raises(ValueError, match="negative"):
        generator.evaluate_indices([-2])
    with pytest.raises(ValueError, match="out of range"):
        generator.local_evaluate_indices([grid.size + 3])


def test_bounds():
    grid = qaoa_grid(p=1, resolution=(5, 7))
    assert grid.bounds == [
        (-math.pi / 4, math.pi / 4),
        (-math.pi / 2, math.pi / 2),
    ]


def test_reshaped_2d_identity_for_2d():
    grid = qaoa_grid(p=1, resolution=(5, 7))
    assert grid.reshaped_2d_shape() == (5, 7)


def test_reshaped_2d_concatenates_4d():
    """The paper's (12, 12, 15, 15) -> (144, 225) reshape."""
    grid = qaoa_grid(p=2)
    assert grid.reshaped_2d_shape() == (144, 225)


def test_reshaped_2d_odd_dims_balanced_split():
    grid = ParameterGrid([GridAxis("a", 0, 1, 3)] * 3)
    assert grid.reshaped_2d_shape() == (9, 3)


def test_reshaped_2d_one_dim_raises():
    grid = ParameterGrid([GridAxis("a", 0, 1, 5)])
    with pytest.raises(ValueError):
        grid.reshaped_2d_shape()


def test_nearest_flat_index_snaps():
    grid = qaoa_grid(p=1, resolution=(5, 7))
    beta = grid.axes[0].values[2] + 0.3 * grid.axes[0].step
    gamma = grid.axes[1].values[4] - 0.2 * grid.axes[1].step
    flat = grid.nearest_flat_index([beta, gamma])
    assert np.unravel_index(flat, grid.shape) == (2, 4)


def test_p3_grid_reshape():
    grid = qaoa_grid(p=3, resolution=(4, 5))
    assert grid.shape == (4, 4, 4, 5, 5, 5)
    assert grid.reshaped_2d_shape() == (64, 125)
