"""Tests for the Landscape container and its persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.landscape import Landscape, qaoa_grid
from repro.landscape.metrics import (
    landscape_variance,
    second_derivative,
    variance_of_gradient,
)


@pytest.fixture
def landscape():
    grid = qaoa_grid(p=1, resolution=(6, 8))
    rng = np.random.default_rng(0)
    return Landscape(grid, rng.normal(size=(6, 8)), label="test", circuit_executions=48)


def test_shape_validation():
    grid = qaoa_grid(p=1, resolution=(6, 8))
    with pytest.raises(ValueError):
        Landscape(grid, np.zeros((8, 6)))


def test_flat_view(landscape):
    assert landscape.flat().shape == (48,)
    assert np.allclose(landscape.flat(), landscape.values.reshape(-1))


def test_minimum_and_maximum(landscape):
    min_value, min_point = landscape.minimum()
    assert min_value == landscape.values.min()
    assert landscape.value_at(min_point) == pytest.approx(min_value)


def test_reshaped_2d_on_4d():
    grid = qaoa_grid(p=2, resolution=(3, 4))
    values = np.arange(3 * 3 * 4 * 4, dtype=float).reshape(3, 3, 4, 4)
    landscape = Landscape(grid, values)
    reshaped = landscape.reshaped_2d()
    assert reshaped.shape == (9, 16)
    assert np.allclose(reshaped.reshape(-1), values.reshape(-1))


def test_metric_delegation(landscape):
    values = landscape.values
    assert landscape_variance(values) == pytest.approx(np.var(values))
    assert second_derivative(values) >= 0.0
    assert variance_of_gradient(values) >= 0.0
    assert 0.0 < landscape.dct_sparsity() <= 1.0


def test_save_load_roundtrip(landscape, tmp_path):
    path = tmp_path / "landscape.npz"
    landscape.save(path)
    loaded = Landscape.load(path)
    assert np.allclose(loaded.values, landscape.values)
    assert loaded.label == "test"
    assert loaded.circuit_executions == 48
    assert loaded.grid.shape == landscape.grid.shape
    for original, restored in zip(landscape.grid.axes, loaded.grid.axes):
        assert original.name == restored.name
        assert original.low == pytest.approx(restored.low)
        assert original.high == pytest.approx(restored.high)


def test_save_creates_missing_parent_directories(landscape, tmp_path):
    """Nested store/result layouts save without pre-creating dirs, and
    the round trip through the nested path preserves all metadata."""
    path = tmp_path / "store" / "deeply" / "nested" / "landscape.npz"
    assert not path.parent.exists()
    landscape.save(path)
    loaded = Landscape.load(path)
    np.testing.assert_array_equal(loaded.values, landscape.values)
    assert loaded.label == landscape.label
    assert loaded.circuit_executions == landscape.circuit_executions
    assert [axis.name for axis in loaded.grid.axes] == [
        axis.name for axis in landscape.grid.axes
    ]


def test_with_values(landscape):
    other = landscape.with_values(np.zeros_like(landscape.values), label="zeros")
    assert other.label == "zeros"
    assert np.allclose(other.values, 0.0)
    assert other.grid is landscape.grid
