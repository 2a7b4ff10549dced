"""Tests for the orthonormal DCT basis layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cs import (
    dct_basis_matrix,
    dct_transform,
    energy_fraction_coefficients,
    idct_transform,
)
from repro.landscape.metrics import dct_sparsity


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), ndim=st.integers(1, 3))
def test_transform_roundtrip(seed, ndim):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, 8) for _ in range(ndim))
    signal = rng.normal(size=shape)
    assert np.allclose(idct_transform(dct_transform(signal)), signal)
    assert np.allclose(dct_transform(idct_transform(signal)), signal)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_transform_preserves_energy(seed):
    """Orthonormal transform: Parseval's identity."""
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=(6, 9))
    coefficients = dct_transform(signal)
    assert np.sum(signal**2) == pytest.approx(np.sum(coefficients**2))


def test_basis_matrix_is_orthonormal():
    for length in (2, 5, 8):
        psi = dct_basis_matrix(length)
        assert np.allclose(psi.T @ psi, np.eye(length), atol=1e-10)


def test_basis_matrix_synthesises():
    rng = np.random.default_rng(0)
    coefficients = rng.normal(size=7)
    psi = dct_basis_matrix(7)
    assert np.allclose(psi @ coefficients, idct_transform(coefficients))


def test_constant_signal_is_one_coefficient():
    signal = np.full((10, 10), 3.7)
    assert energy_fraction_coefficients(signal) == 1
    assert dct_sparsity(signal) == pytest.approx(0.01)


def test_single_cosine_is_one_coefficient():
    coefficients = np.zeros((8, 8))
    coefficients[2, 3] = 5.0
    signal = idct_transform(coefficients)
    assert energy_fraction_coefficients(signal) == 1


def test_energy_fraction_monotone_in_threshold():
    rng = np.random.default_rng(1)
    signal = rng.normal(size=(12, 12))
    low = energy_fraction_coefficients(signal, 0.5)
    high = energy_fraction_coefficients(signal, 0.99)
    assert low <= high


def test_energy_fraction_of_zero_signal():
    assert energy_fraction_coefficients(np.zeros((4, 4))) == 0


def test_energy_fraction_validation():
    with pytest.raises(ValueError):
        energy_fraction_coefficients(np.ones(4), fraction=0.0)
    with pytest.raises(ValueError):
        energy_fraction_coefficients(np.ones(4), fraction=1.5)


def test_white_noise_is_not_sparse():
    rng = np.random.default_rng(2)
    noise = rng.normal(size=(20, 20))
    assert dct_sparsity(noise) > 0.5


def test_qaoa_landscape_is_sparse():
    """The paper's core empirical claim (Table 4) at small scale."""
    from repro.ansatz import QaoaAnsatz
    from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
    from repro.problems import random_3_regular_maxcut

    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(16, 32))
    truth = LandscapeGenerator(cost_function(ansatz), grid).grid_search()
    assert dct_sparsity(truth.values) < 0.05
