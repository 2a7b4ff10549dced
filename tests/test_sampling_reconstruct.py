"""Tests for grid sampling and end-to-end signal reconstruction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cs import (
    ReconstructionConfig,
    idct_transform,
    reconstruct_signal,
    reconstruction_operators,
    sample_count_for_fraction,
    stratified_indices,
    uniform_random_indices,
)


# -- sampling -----------------------------------------------------------------


def test_sample_count_for_fraction():
    assert sample_count_for_fraction(100, 0.05) == 5
    assert sample_count_for_fraction(100, 1.0) == 100
    assert sample_count_for_fraction(10, 0.001) == 1  # at least one


def test_sample_count_validation():
    with pytest.raises(ValueError):
        sample_count_for_fraction(10, 0.0)
    with pytest.raises(ValueError):
        sample_count_for_fraction(10, 1.2)


@given(seed=st.integers(0, 100), fraction=st.floats(0.01, 1.0))
@settings(max_examples=30)
def test_uniform_indices_distinct_sorted_in_range(seed, fraction):
    rng = np.random.default_rng(seed)
    indices = uniform_random_indices(200, fraction, rng)
    assert len(np.unique(indices)) == len(indices)
    assert np.all(np.diff(indices) > 0)
    assert indices.min() >= 0 and indices.max() < 200


def test_stratified_indices_cover_grid():
    rng = np.random.default_rng(0)
    indices = stratified_indices(1000, 0.1, rng)
    # One sample per stratum of width 10: every decade is hit.
    strata = indices // 10
    assert len(np.unique(strata)) == 100


@given(
    grid_size=st.integers(2, 5000),
    fraction=st.floats(0.001, 1.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60)
def test_stratified_indices_exact_count(grid_size, fraction, seed):
    """Regression: overlapping strata used to collapse duplicate draws
    under np.unique, silently undershooting the requested fraction.
    Strata are now disjoint, so the sampler returns exactly the
    requested number of distinct, in-range, sorted indices."""
    rng = np.random.default_rng(seed)
    indices = stratified_indices(grid_size, fraction, rng)
    expected = sample_count_for_fraction(grid_size, fraction)
    assert indices.shape[0] == expected
    assert len(np.unique(indices)) == expected
    assert indices.min() >= 0 and indices.max() < grid_size
    assert np.all(np.diff(indices) > 0)


def test_stratified_indices_full_fraction_is_permutation_free():
    """fraction=1.0 must return every grid index exactly once."""
    indices = stratified_indices(64, 1.0, np.random.default_rng(1))
    assert np.array_equal(indices, np.arange(64))


# -- reconstruction operators ---------------------------------------------------


def test_operator_adjoint_identity():
    """<A s, y> == <s, A^T y> — the key solver correctness condition."""
    shape = (7, 11)
    rng = np.random.default_rng(3)
    indices = np.sort(rng.choice(77, size=20, replace=False))
    forward, adjoint = reconstruction_operators(shape, indices)
    s = rng.normal(size=shape)
    y = rng.normal(size=20)
    lhs = float(forward(s) @ y)
    rhs = float(np.sum(s * adjoint(y)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_operator_index_validation():
    with pytest.raises(ValueError):
        reconstruction_operators((4, 4), np.array([]))
    with pytest.raises(ValueError):
        reconstruction_operators((4, 4), np.array([16]))
    with pytest.raises(ValueError):
        reconstruction_operators((4, 4), np.array([-1]))


# -- reconstruct_signal -----------------------------------------------------------


def planted_signal(shape, sparsity, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    coefficients = np.zeros(size)
    support = rng.choice(size, size=sparsity, replace=False)
    coefficients[support] = 4.0 * rng.normal(size=sparsity)
    return idct_transform(coefficients.reshape(shape))


@pytest.mark.parametrize("solver", ["fista", "omp", "bp"])
def test_reconstruct_signal_all_solvers(solver):
    shape = (8, 8)
    signal = planted_signal(shape, sparsity=3, seed=1)
    rng = np.random.default_rng(2)
    indices = np.sort(rng.choice(64, size=36, replace=False))
    values = signal.reshape(-1)[indices]
    config = ReconstructionConfig(solver=solver, max_iterations=1500)
    recovered, result = reconstruct_signal(shape, indices, values, config)
    error = np.linalg.norm(recovered - signal) / np.linalg.norm(signal)
    assert error < 0.05, f"{solver} error {error}"


def test_reconstruct_signal_validates_lengths():
    with pytest.raises(ValueError):
        reconstruct_signal((4, 4), np.array([0, 1]), np.array([1.0]))


def test_reconstruct_signal_unknown_solver():
    with pytest.raises(ValueError):
        reconstruct_signal(
            (4, 4), np.array([0]), np.array([1.0]), ReconstructionConfig(solver="magic")
        )


def test_config_refuses_infinite_lam():
    """An infinite ``lam`` would threshold every coefficient but the DC
    term to zero and still report convergence, so it is refused like a
    negative one; zero and the auto heuristic stay valid."""
    for lam in (float("inf"), -1.0):
        with pytest.raises(ValueError, match="lam must be a finite number"):
            ReconstructionConfig(lam=lam)
    assert ReconstructionConfig(lam=0.0).lam == 0.0
    assert ReconstructionConfig(lam=None).lam is None


def test_basis_pursuit_grid_size_cap():
    big = (128, 64)  # 8192 > 4096
    with pytest.raises(ValueError):
        reconstruct_signal(
            big, np.array([0]), np.array([1.0]), ReconstructionConfig(solver="bp")
        )


def test_reconstruction_interpolates_missing_points():
    """Reconstruction must fill in unsampled grid points, matching the
    planted signal there too (the whole point of CS)."""
    shape = (10, 10)
    signal = planted_signal(shape, sparsity=2, seed=4)
    rng = np.random.default_rng(5)
    indices = np.sort(rng.choice(100, size=40, replace=False))
    values = signal.reshape(-1)[indices]
    recovered, _ = reconstruct_signal(shape, indices, values)
    unsampled = np.setdiff1d(np.arange(100), indices)
    error = np.abs(recovered.reshape(-1)[unsampled] - signal.reshape(-1)[unsampled])
    assert error.max() < 0.1 * np.abs(signal).max()
