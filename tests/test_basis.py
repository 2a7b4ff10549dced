"""Tests for the basis-choice extension (DCT vs DST)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cs import (
    BASES,
    ReconstructionConfig,
    dst_transform,
    idst_transform,
    inverse_transform,
    reconstruct_signal,
    reconstruction_operators,
    transform,
)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_dst_roundtrip(seed):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=(7, 9))
    assert np.allclose(idst_transform(dst_transform(signal)), signal)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_dst_preserves_energy(seed):
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=40)
    assert np.sum(signal**2) == pytest.approx(np.sum(dst_transform(signal) ** 2))


@pytest.mark.parametrize("basis", BASES)
def test_generic_transform_dispatch(basis):
    rng = np.random.default_rng(0)
    signal = rng.normal(size=(5, 6))
    assert np.allclose(inverse_transform(transform(signal, basis), basis), signal)


def test_unknown_basis_raises():
    with pytest.raises(ValueError):
        transform(np.ones(4), basis="wavelet")
    with pytest.raises(ValueError):
        ReconstructionConfig(basis="wavelet")


@pytest.mark.parametrize("basis", BASES)
def test_operator_adjoint_identity_per_basis(basis):
    shape = (8, 10)
    rng = np.random.default_rng(1)
    indices = np.sort(rng.choice(80, size=25, replace=False))
    forward, adjoint = reconstruction_operators(shape, indices, basis)
    s = rng.normal(size=shape)
    y = rng.normal(size=25)
    assert float(forward(s) @ y) == pytest.approx(float(np.sum(s * adjoint(y))))


def test_dst_recovers_dst_sparse_signal():
    shape = (10, 10)
    rng = np.random.default_rng(2)
    coefficients = np.zeros(100)
    coefficients[rng.choice(100, 3, replace=False)] = rng.normal(size=3) * 4
    signal = idst_transform(coefficients.reshape(shape))
    indices = np.sort(rng.choice(100, size=45, replace=False))
    recovered, _ = reconstruct_signal(
        shape,
        indices,
        signal.reshape(-1)[indices],
        ReconstructionConfig(basis="dst", max_iterations=1000),
    )
    error = np.linalg.norm(recovered - signal) / np.linalg.norm(signal)
    assert error < 0.05


def test_dct_beats_dst_on_nonzero_boundary_landscape(qaoa6, medium_grid):
    """VQA landscapes have non-zero boundaries, violating the DST's
    implicit odd extension — the DCT should reconstruct better (the
    basis ablation of ``benchmarks/test_ablations.py``, asserted at test
    scale)."""
    from repro.landscape import LandscapeGenerator, OscarReconstructor, cost_function, nrmse

    generator = LandscapeGenerator(cost_function(qaoa6), medium_grid)
    truth = generator.grid_search()
    errors = {}
    for basis in BASES:
        oscar = OscarReconstructor(
            medium_grid, config=ReconstructionConfig(basis=basis), rng=3
        )
        reconstruction, _ = oscar.reconstruct(generator, 0.10)
        errors[basis] = nrmse(truth.values, reconstruction.values)
    assert errors["dct"] < errors["dst"]


def test_bp_solver_rejects_non_dct_basis():
    with pytest.raises(ValueError):
        reconstruct_signal(
            (4, 4),
            np.array([0, 1]),
            np.array([1.0, 2.0]),
            ReconstructionConfig(solver="bp", basis="dst"),
        )
