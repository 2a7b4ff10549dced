"""Tests for the Landscape container and its persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.landscape import Landscape, qaoa_grid
from repro.landscape.metrics import (
    dct_sparsity,
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
    assert 0.0 < dct_sparsity(values) <= 1.0


def test_bytes_roundtrip(landscape):
    """``to_bytes``/``from_bytes`` is the one landscape codec (the store's
    payload files and the daemon's wire form): values, label, execution
    count and every axis survive it."""
    loaded = Landscape.from_bytes(landscape.to_bytes())
    np.testing.assert_array_equal(loaded.values, landscape.values)
    assert loaded.label == "test"
    assert loaded.circuit_executions == 48
    assert loaded.grid.shape == landscape.grid.shape
    for original, restored in zip(landscape.grid.axes, loaded.grid.axes):
        assert original.name == restored.name
        assert original.low == restored.low
        assert original.high == restored.high


def test_with_values(landscape):
    other = landscape.with_values(np.zeros_like(landscape.values), label="zeros")
    assert other.label == "zeros"
    assert np.allclose(other.values, 0.0)
    assert other.grid is landscape.grid
