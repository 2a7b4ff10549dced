"""Tests for the sparse-recovery solvers (FISTA, OMP, basis pursuit)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cs import (
    basis_pursuit_linprog,
    dct_basis_matrix,
    fista_lasso,
    idct_transform,
    omp,
    reconstruction_operators,
    soft_threshold,
)


def sparse_problem(shape, sparsity, num_measurements, seed, amplitude=5.0):
    """A planted sparse-DCT signal measured at random grid indices."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    coefficients = np.zeros(size)
    support = rng.choice(size, size=sparsity, replace=False)
    coefficients[support] = amplitude * rng.normal(size=sparsity)
    coefficients = coefficients.reshape(shape)
    signal = idct_transform(coefficients)
    indices = np.sort(rng.choice(size, size=num_measurements, replace=False))
    forward, adjoint = reconstruction_operators(shape, indices)
    measurements = signal.reshape(-1)[indices]
    return coefficients, signal, indices, forward, adjoint, measurements


# -- soft threshold ------------------------------------------------------------


@given(value=st.floats(-10, 10), threshold=st.floats(0, 5))
def test_soft_threshold_shrinks_toward_zero(value, threshold):
    out = float(soft_threshold(np.array([value]), threshold)[0])
    assert abs(out) <= max(abs(value) - threshold, 0.0) + 1e-12


def test_soft_threshold_kills_small_values():
    values = np.array([-0.5, 0.2, 0.9])
    assert np.allclose(soft_threshold(values, 1.0), 0.0)


def test_soft_threshold_preserves_sign():
    values = np.array([-3.0, 3.0])
    out = soft_threshold(values, 1.0)
    assert np.allclose(out, [-2.0, 2.0])


# -- FISTA ----------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_fista_recovers_sparse_signal(seed):
    shape = (12, 12)
    coefficients, signal, indices, forward, adjoint, y = sparse_problem(
        shape, sparsity=5, num_measurements=70, seed=seed
    )
    result = fista_lasso(forward, adjoint, y, shape, max_iterations=800)
    recovered = idct_transform(result.coefficients)
    error = np.linalg.norm(recovered - signal) / np.linalg.norm(signal)
    assert error < 0.05


def test_fista_converges_flag():
    shape = (8, 8)
    _, _, _, forward, adjoint, y = sparse_problem(shape, 3, 40, seed=0)
    result = fista_lasso(forward, adjoint, y, shape, max_iterations=2000)
    assert result.converged
    assert result.iterations < 2000


def test_fista_dc_not_penalised_by_default():
    """A constant signal must reconstruct exactly despite the L1 term."""
    shape = (10, 10)
    signal = np.full(shape, 4.2)
    rng = np.random.default_rng(0)
    indices = np.sort(rng.choice(100, size=30, replace=False))
    forward, adjoint = reconstruction_operators(shape, indices)
    y = signal.reshape(-1)[indices]
    result = fista_lasso(forward, adjoint, y, shape, max_iterations=500)
    recovered = idct_transform(result.coefficients)
    assert np.allclose(recovered, 4.2, atol=1e-3)


def test_fista_explicit_lambda_controls_sparsity():
    shape = (10, 10)
    _, signal, indices, forward, adjoint, y = sparse_problem(shape, 4, 50, seed=3)
    tight = fista_lasso(forward, adjoint, y, shape, lam=10.0, max_iterations=300)
    loose = fista_lasso(forward, adjoint, y, shape, lam=1e-4, max_iterations=300)
    nnz_tight = np.count_nonzero(np.abs(tight.coefficients) > 1e-9)
    nnz_loose = np.count_nonzero(np.abs(loose.coefficients) > 1e-9)
    assert nnz_tight < nnz_loose


def test_fista_objective_is_finite():
    shape = (6, 6)
    _, _, _, forward, adjoint, y = sparse_problem(shape, 2, 20, seed=5)
    result = fista_lasso(forward, adjoint, y, shape)
    assert np.isfinite(result.objective)


def test_fista_warm_start_fewer_iterations():
    """Seeding with a previous solution must cut the iteration count."""
    shape = (12, 12)
    _, _, _, forward, adjoint, y = sparse_problem(shape, 5, 70, seed=6)
    cold = fista_lasso(forward, adjoint, y, shape, max_iterations=800)
    warm = fista_lasso(
        forward, adjoint, y, shape, max_iterations=800, initial=cold.coefficients
    )
    assert warm.iterations < cold.iterations
    assert np.allclose(warm.coefficients, cold.coefficients, atol=1e-4)


def test_auto_lambda_respects_penalize_dc():
    from repro.cs import auto_lambda

    correlation = np.array([10.0, 1.0, 0.5])
    assert auto_lambda(correlation, penalize_dc=False) == pytest.approx(0.01)
    assert auto_lambda(correlation, penalize_dc=True) == pytest.approx(0.1)


def test_dst_basis_penalizes_flat_index_zero():
    """Under the DST there is no DC term, so index 0 must be shrunk
    like any other coefficient (the auto-lam/DC bugfix)."""
    from repro.cs import ReconstructionConfig, reconstruct_signal

    shape = (8, 8)
    rng = np.random.default_rng(10)
    indices = np.sort(rng.choice(64, size=30, replace=False))
    values = rng.normal(size=30)
    config = ReconstructionConfig(basis="dst", lam=50.0, max_iterations=200)
    _, result = reconstruct_signal(shape, indices, values, config)
    # A huge penalty with full shrinkage drives *every* coefficient,
    # including flat index 0, to zero.
    assert result.coefficients[0, 0] == 0.0
    assert np.allclose(result.coefficients, 0.0)


# -- OMP --------------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 50))
def test_omp_exact_recovery_for_very_sparse(seed):
    shape = (10, 10)
    coefficients, signal, indices, forward, adjoint, y = sparse_problem(
        shape, sparsity=3, num_measurements=50, seed=seed
    )
    result = omp(forward, adjoint, y, shape, max_atoms=10)
    recovered = idct_transform(result.coefficients)
    error = np.linalg.norm(recovered - signal) / np.linalg.norm(signal)
    assert error < 1e-6
    assert result.converged


def test_omp_respects_atom_cap():
    shape = (8, 8)
    _, _, _, forward, adjoint, y = sparse_problem(shape, 6, 30, seed=2)
    result = omp(forward, adjoint, y, shape, max_atoms=2)
    assert np.count_nonzero(result.coefficients) <= 2


def test_omp_zero_measurements_edge():
    shape = (4, 4)
    forward, adjoint = reconstruction_operators(shape, np.array([0, 5, 9]))
    result = omp(forward, adjoint, np.zeros(3), shape)
    assert np.allclose(result.coefficients, 0.0)


# -- basis pursuit -----------------------------------------------------------------


def test_basis_pursuit_exact_recovery():
    rng = np.random.default_rng(4)
    n, m, k = 36, 20, 3
    psi = dct_basis_matrix(n)
    coefficients = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    coefficients[support] = rng.normal(size=k) * 3.0
    indices = np.sort(rng.choice(n, size=m, replace=False))
    sensing = psi[indices, :]
    y = sensing @ coefficients
    result = basis_pursuit_linprog(sensing, y)
    assert result.converged
    assert np.allclose(result.coefficients, coefficients, atol=1e-6)


def test_basis_pursuit_dimension_mismatch():
    with pytest.raises(ValueError):
        basis_pursuit_linprog(np.ones((3, 5)), np.ones(4))


def test_basis_pursuit_minimises_l1():
    """Among consistent solutions, BP picks (near) minimal L1 norm."""
    rng = np.random.default_rng(7)
    sensing = rng.normal(size=(5, 12))
    sparse = np.zeros(12)
    sparse[[2, 8]] = [1.5, -2.0]
    y = sensing @ sparse
    result = basis_pursuit_linprog(sensing, y)
    assert np.abs(result.coefficients).sum() <= np.abs(sparse).sum() + 1e-6
    assert np.allclose(sensing @ result.coefficients, y, atol=1e-8)
