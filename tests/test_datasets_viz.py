"""Tests for the synthetic Sycamore dataset and the ASCII renderer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SYCAMORE_PROBLEMS, SycamoreConfig, sycamore_landscape
from repro.landscape import Landscape, OscarReconstructor, nrmse, qaoa_grid
from repro.viz import render_path_overlay, render_side_by_side


# -- sycamore dataset ------------------------------------------------------------


@pytest.mark.parametrize("kind", SYCAMORE_PROBLEMS)
def test_sycamore_shapes(kind):
    config = SycamoreConfig(resolution=20, num_qubits=6)
    hardware, ideal = sycamore_landscape(kind, seed=0, config=config)
    assert hardware.values.shape == (20, 20)
    assert ideal.values.shape == (20, 20)
    assert hardware.grid is ideal.grid or hardware.grid.shape == ideal.grid.shape


def test_sycamore_default_resolution_is_50():
    hardware, _ = sycamore_landscape("mesh", seed=0)
    assert hardware.values.shape == (50, 50)


def test_sycamore_hardware_differs_from_ideal():
    config = SycamoreConfig(resolution=16, num_qubits=6)
    hardware, ideal = sycamore_landscape("sk", seed=0, config=config)
    assert not np.allclose(hardware.values, ideal.values)
    # Hardware noise contracts the signal: reduced correlation, not none.
    correlation = np.corrcoef(hardware.flat(), ideal.flat())[0, 1]
    assert 0.2 < correlation < 0.999


def test_sycamore_deterministic():
    config = SycamoreConfig(resolution=12, num_qubits=6)
    a, _ = sycamore_landscape("3-regular", seed=4, config=config)
    b, _ = sycamore_landscape("3-regular", seed=4, config=config)
    assert np.allclose(a.values, b.values)


def test_sycamore_unknown_kind_raises():
    with pytest.raises(ValueError):
        sycamore_landscape("petersen")


def test_sycamore_sk_noisier_than_mesh():
    sk_hw, sk_ideal = sycamore_landscape("sk", seed=0)
    mesh_hw, mesh_ideal = sycamore_landscape("mesh", seed=0)

    def noise_ratio(hw: Landscape, ideal: Landscape) -> float:
        residual = hw.values - ideal.values
        return float(np.std(residual) / max(np.std(ideal.values), 1e-12))

    assert noise_ratio(sk_hw, sk_ideal) > noise_ratio(mesh_hw, mesh_ideal)


def test_sycamore_reconstructable_at_41_percent():
    """Fig. 5's setting: 41% sampling gives a recognisable landscape."""
    hardware, _ = sycamore_landscape("mesh", seed=0)
    oscar = OscarReconstructor(hardware.grid, rng=0)
    indices = oscar.sample_indices(0.41)
    reconstruction, _ = oscar.reconstruct_from_samples(
        indices, hardware.flat()[indices]
    )
    assert nrmse(hardware.values, reconstruction.values) < 0.6


# -- ASCII rendering -----------------------------------------------------------------


@pytest.fixture
def tiny_landscape():
    grid = qaoa_grid(p=1, resolution=(8, 12))
    values = np.outer(np.linspace(0, 1, 8), np.linspace(-1, 1, 12))
    return Landscape(grid, values, label="tiny")


def test_render_side_by_side_shared_scale(tiny_landscape):
    other = tiny_landscape.with_values(tiny_landscape.values * 0.5, label="half")
    output = render_side_by_side(tiny_landscape, other)
    assert "tiny" in output and "half" in output
    assert "|" in output
    assert "shared scale" in output


def test_render_path_overlay_markers(tiny_landscape):
    path = np.array([[-0.7, -1.5], [0.0, 0.0], [0.7, 1.5]])
    output = render_path_overlay(tiny_landscape, path)
    assert "S" in output
    assert "E" in output


def test_render_path_overlay_requires_2d():
    grid = qaoa_grid(p=2, resolution=(3, 4))
    landscape = Landscape(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError):
        render_path_overlay(landscape, np.zeros((2, 4)))
