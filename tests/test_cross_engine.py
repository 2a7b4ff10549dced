"""Cross-engine consistency tests.

The repo has two serial execution engines (statevector, density
matrix) plus an analytic noise channel; these tests pin them against
each other on random circuits, and pin circuit folding against noise
scaling — the identity ZNE relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.quantum import (
    NoiseModel,
    QuantumCircuit,
    global_depolarizing_factor,
    simulate,
    simulate_density,
)


def random_circuit(num_qubits: int, depth: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits)
    for _ in range(depth):
        kind = rng.integers(0, 5)
        if kind == 0:
            qc.h(int(rng.integers(0, num_qubits)))
        elif kind == 1:
            qc.rx(float(rng.normal()), int(rng.integers(0, num_qubits)))
        elif kind == 2:
            qc.rz(float(rng.normal()), int(rng.integers(0, num_qubits)))
        elif kind == 3:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.cx(int(a), int(b))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.rzz(float(rng.normal()), int(a), int(b))
    return qc


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 200))
def test_density_matches_statevector_on_random_circuits(seed):
    qc = random_circuit(3, depth=12, seed=seed)
    state = simulate(qc)
    rho = simulate_density(qc)
    reference = np.outer(state.data, state.data.conj())
    assert np.allclose(rho.data, reference, atol=1e-9)


def test_folding_multiplies_depolarizing_factor():
    """ZNE's core identity: folding by k scales the log noise factor by
    k exactly (gate counts multiply, so the factor exponentiates)."""
    qc = random_circuit(4, depth=10, seed=0)
    noise = NoiseModel(p1=0.004, p2=0.009)
    base = global_depolarizing_factor(qc, noise)
    for scale in (3, 5):
        folded = global_depolarizing_factor(qc.folded(scale), noise)
        assert folded == pytest.approx(base**scale, rel=1e-9)


def test_fold_vs_error_rate_scaling_agree_to_first_order():
    """Folding x3 and scaling the error rates x3 produce matching noise
    factors to first order in the error rates."""
    qc = random_circuit(4, depth=8, seed=1)
    noise = NoiseModel(p1=0.0005, p2=0.001)
    folded = global_depolarizing_factor(qc.folded(3), noise)
    scaled = global_depolarizing_factor(qc, noise.scaled(3.0))
    assert folded == pytest.approx(scaled, abs=5e-4)


def test_qaoa_fast_path_equals_twolocal_engine_on_shared_problem():
    """The QAOA fast path and the generic matrix engine agree when the
    same state is prepared through both code paths."""
    problem = sk_problem(4, seed=0)
    qaoa = QaoaAnsatz(problem, p=1)
    params = np.array([0.3, -0.7])
    state = qaoa.statevector(params)
    hamiltonian = problem.to_pauli_sum()
    via_pauli = hamiltonian.expectation(state)
    via_diagonal = state.expectation_diagonal(problem.cost_diagonal())
    assert via_pauli == pytest.approx(via_diagonal, abs=1e-10)


def test_density_readout_matches_analytic_readout_scaling():
    """Exact readout-corrupted expectation vs the (1-2r)^2 scaling the
    QAOA fast path uses for 2-local costs."""
    problem = random_3_regular_maxcut(4, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.2, 0.5])
    r = 0.03
    rho = simulate_density(ansatz.circuit(params))
    exact = rho.expectation_diagonal(problem.cost_diagonal(), readout_error=r)
    ideal = ansatz.expectation(params)
    mean = problem.cost_diagonal().mean()
    analytic = mean + (1 - 2 * r) ** 2 * (ideal - mean)
    assert exact == pytest.approx(analytic, abs=1e-10)


def test_twolocal_density_ideal_limit():
    """Density-matrix noisy path converges to the statevector value as
    noise goes to zero."""
    hamiltonian = sk_problem(4, seed=1).to_pauli_sum()
    ansatz = TwoLocalAnsatz(hamiltonian, reps=1)
    rng = np.random.default_rng(0)
    params = rng.uniform(-np.pi, np.pi, 8)
    exact = ansatz.expectation(params)
    nearly_ideal = ansatz.expectation(params, noise=NoiseModel(p1=1e-7, p2=1e-7))
    assert nearly_ideal == pytest.approx(exact, abs=1e-4)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 100))
def test_noise_monotonically_contracts_random_qaoa_points(seed):
    """More noise always pulls the expectation closer to the mean."""
    rng = np.random.default_rng(seed)
    problem = random_3_regular_maxcut(6, seed=seed)
    ansatz = QaoaAnsatz(problem, p=1)
    params = rng.uniform(-0.7, 0.7, 2)
    mean = problem.cost_diagonal().mean()
    deviations = []
    for p2 in (0.0, 0.01, 0.03):
        value = ansatz.expectation(params, noise=NoiseModel(p1=p2 / 3, p2=p2))
        deviations.append(abs(value - mean))
    assert deviations[0] >= deviations[1] >= deviations[2]


def test_pec_matches_density_matrix_in_limit():
    """PEC's internal noise model (independent 1q channels) corrects its
    own noise exactly: many-sample estimates approach the ideal value."""
    from repro.mitigation import PecEstimator

    problem = random_3_regular_maxcut(4, seed=3)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.3, 0.4])
    circuit = ansatz.circuit(params)
    diagonal = problem.cost_diagonal()
    ideal = ansatz.expectation(params)
    estimator = PecEstimator(NoiseModel(p1=0.01, p2=0.02), num_samples=6000)
    estimate = estimator.estimate(circuit, diagonal, rng=np.random.default_rng(0))
    gamma = estimator.total_gamma(circuit)
    assert estimate == pytest.approx(
        ideal, abs=4 * gamma * diagonal.std() / np.sqrt(6000)
    )
