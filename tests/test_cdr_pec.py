"""Tests for Clifford Data Regression and Probabilistic Error
Cancellation (the remaining Sec. 2.3 mitigation families)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz
from repro.mitigation import (
    CdrConfig,
    CliffordDataRegression,
    PecEstimator,
    cdr_cost_function,
    inverse_depolarizing_quasiprobability,
    pec_gamma_factor,
    snap_to_clifford_angles,
)
from repro.problems import random_3_regular_maxcut
from repro.quantum import NoiseModel


# -- CDR -----------------------------------------------------------------------


def test_snap_to_clifford_angles():
    rng = np.random.default_rng(0)
    snapped = snap_to_clifford_angles(np.array([0.1, 0.7, -0.4]), rng)
    lattice = snapped / (np.pi / 4.0)
    assert np.allclose(lattice, np.round(lattice))


def test_snap_keep_fraction_preserves_some():
    rng = np.random.default_rng(1)
    original = np.array([0.11, 0.22, 0.33, 0.44] * 10)
    snapped = snap_to_clifford_angles(original, rng, keep_fraction=0.5)
    kept = np.isclose(snapped, original)
    assert 0 < kept.sum() < original.size


def test_cdr_config_validation():
    with pytest.raises(ValueError):
        CdrConfig(num_training_circuits=1)


def test_cdr_requires_training():
    problem = random_3_regular_maxcut(6, seed=0)
    model = CliffordDataRegression(QaoaAnsatz(problem, p=1), NoiseModel(p1=0.01))
    with pytest.raises(RuntimeError):
        model.mitigate(0.5)
    with pytest.raises(RuntimeError):
        model.coefficients


def test_cdr_recovers_ideal_for_depolarizing():
    """Under (affine) depolarizing noise, CDR's linear fit is exact."""
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.003, p2=0.01)
    params = np.array([0.2, -0.5])
    model = CliffordDataRegression(ansatz, noise)
    model.train(params, rng=np.random.default_rng(0))
    ideal = ansatz.expectation(params)
    noisy = ansatz.expectation(params, noise=noise)
    mitigated = model.mitigated_expectation(params)
    assert abs(mitigated - ideal) < abs(noisy - ideal) / 10
    slope, _ = model.coefficients
    assert slope > 1.0  # the inverse of a contraction expands


def test_cdr_cost_function_shares_training():
    problem = random_3_regular_maxcut(6, seed=1)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.002, p2=0.008)
    function = cdr_cost_function(
        ansatz, noise, train_around=np.array([0.2, 0.5]),
        rng=np.random.default_rng(2),
    )
    for point in ([0.2, 0.5], [-0.1, 0.9], [0.4, -0.3]):
        mitigated = function(np.array(point))
        ideal = ansatz.expectation(np.array(point))
        assert mitigated == pytest.approx(ideal, abs=0.05)


def test_cdr_with_shot_noise_still_helps():
    problem = random_3_regular_maxcut(6, seed=2)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.003, p2=0.01)
    params = np.array([0.3, 0.4])
    rng = np.random.default_rng(3)
    model = CliffordDataRegression(
        ansatz, noise, CdrConfig(num_training_circuits=20)
    )
    model.train(params, rng=rng, shots=4096)
    ideal = ansatz.expectation(params)
    noisy = ansatz.expectation(params, noise=noise)
    mitigated = model.mitigated_expectation(params, shots=4096, rng=rng)
    assert abs(mitigated - ideal) < abs(noisy - ideal)


# -- PEC ------------------------------------------------------------------------


def test_inverse_quasiprobability_weights():
    c_identity, c_pauli = inverse_depolarizing_quasiprobability(0.0)
    assert c_identity == pytest.approx(1.0)
    assert c_pauli == pytest.approx(0.0)
    # TP constraint: signed coefficients sum to 1.
    c_identity, c_pauli = inverse_depolarizing_quasiprobability(0.05)
    assert c_identity - c_pauli == pytest.approx(1.0)
    assert c_pauli > 0


def test_inverse_quasiprobability_validation():
    with pytest.raises(ValueError):
        inverse_depolarizing_quasiprobability(0.75)
    with pytest.raises(ValueError):
        inverse_depolarizing_quasiprobability(-0.01)


def test_gamma_factor_grows_with_noise():
    assert pec_gamma_factor(0.0) == pytest.approx(1.0)
    assert pec_gamma_factor(0.02) > pec_gamma_factor(0.01) > 1.0


def test_gamma_formula():
    p = 0.03
    scale = 1 - 4 * p / 3
    assert pec_gamma_factor(p) == pytest.approx((3.0 / scale - 1.0) / 2.0)


def test_pec_total_gamma_exponential_in_gates():
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.002, p2=0.01)
    estimator = PecEstimator(noise)
    shallow = ansatz.circuit(np.array([0.2, 0.3]))
    deep = shallow.folded(3)
    gamma_shallow = estimator.total_gamma(shallow)
    gamma_deep = estimator.total_gamma(deep)
    assert gamma_deep == pytest.approx(gamma_shallow**3, rel=1e-6)
    assert gamma_shallow > 1.0


def test_pec_estimate_unbiased():
    """The sign-weighted estimator converges to the ideal expectation."""
    problem = random_3_regular_maxcut(4, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.005, p2=0.02)
    params = np.array([0.25, -0.4])
    circuit = ansatz.circuit(params)
    diagonal = problem.cost_diagonal()
    ideal = ansatz.expectation(params)
    estimator = PecEstimator(noise, num_samples=3000)
    estimate = estimator.estimate(circuit, diagonal, rng=np.random.default_rng(0))
    gamma = estimator.total_gamma(circuit)
    # Statistical tolerance ~ gamma * spread / sqrt(N).
    tolerance = 4.0 * gamma * diagonal.std() / np.sqrt(3000)
    assert estimate == pytest.approx(ideal, abs=tolerance)


def test_pec_variance_exceeds_unmitigated():
    """The gamma overhead is visible as estimator variance."""
    problem = random_3_regular_maxcut(4, seed=1)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.01, p2=0.03)
    params = np.array([0.2, 0.3])
    circuit = ansatz.circuit(params)
    diagonal = problem.cost_diagonal()
    rng = np.random.default_rng(1)
    estimator = PecEstimator(noise, num_samples=40)
    estimates = [estimator.estimate(circuit, diagonal, rng) for _ in range(15)]
    assert np.std(estimates) > 0.01
