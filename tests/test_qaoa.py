"""Tests for the QAOA ansatz: the fast path is validated against the
explicit circuit on every instance, which pins the whole simulation
stack together."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import QaoaAnsatz
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.quantum import NoiseModel, simulate

ANGLES = st.floats(min_value=-1.5, max_value=1.5)


def test_depth_validation():
    problem = random_3_regular_maxcut(4, seed=0)
    with pytest.raises(ValueError):
        QaoaAnsatz(problem, p=0)


def test_parameter_count():
    problem = random_3_regular_maxcut(4, seed=0)
    assert QaoaAnsatz(problem, p=1).num_parameters == 2
    assert QaoaAnsatz(problem, p=3).num_parameters == 6


def test_parameter_length_validation():
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
    with pytest.raises(ValueError):
        ansatz.expectation([0.1])


@settings(max_examples=15, deadline=None)
@given(beta=ANGLES, gamma=ANGLES)
def test_fast_path_matches_circuit_p1(beta, gamma):
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([beta, gamma])
    fast = ansatz.statevector(params)
    slow = simulate(ansatz.circuit(params))
    assert fast.fidelity(slow) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 20))
def test_fast_path_matches_circuit_p2(seed):
    rng = np.random.default_rng(seed)
    problem = sk_problem(4, seed=seed)
    ansatz = QaoaAnsatz(problem, p=2)
    params = rng.uniform(-1, 1, size=4)
    fast = ansatz.expectation(params)
    slow_state = simulate(ansatz.circuit(params))
    slow = slow_state.expectation_diagonal(problem.cost_diagonal())
    assert fast == pytest.approx(slow, abs=1e-9)


def test_zero_gamma_landscape_is_flat_in_beta():
    """With gamma = 0 the cost layer is trivial; the state stays uniform
    under the mixer, so the expectation equals the cost mean."""
    problem = random_3_regular_maxcut(6, seed=1)
    ansatz = QaoaAnsatz(problem, p=1)
    mean = problem.cost_diagonal().mean()
    for beta in (-0.5, 0.0, 0.4, 1.0):
        assert ansatz.expectation([beta, 0.0]) == pytest.approx(mean, abs=1e-9)


def test_optimal_angles_beat_random_guess():
    problem = random_3_regular_maxcut(8, seed=2)
    ansatz = QaoaAnsatz(problem, p=1)
    betas = np.linspace(-np.pi / 4, np.pi / 4, 15)
    gammas = np.linspace(-np.pi / 2, np.pi / 2, 25)
    values = [
        ansatz.expectation([beta, gamma]) for beta in betas for gamma in gammas
    ]
    mean = problem.cost_diagonal().mean()
    assert min(values) < mean - 0.5  # QAOA finds structure below average


def test_noise_contracts_toward_mean():
    problem = random_3_regular_maxcut(6, seed=3)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.2, -0.6])
    mean = problem.cost_diagonal().mean()
    ideal = ansatz.expectation(params)
    noisy = ansatz.expectation(params, noise=NoiseModel(p1=0.01, p2=0.03))
    assert abs(noisy - mean) < abs(ideal - mean)


def test_noise_contraction_matches_density_matrix_scaling():
    """The analytic global-depolarizing contraction must track the exact
    density-matrix result within a few percent of the cost spread for a
    small instance."""
    from repro.quantum import simulate_density

    problem = random_3_regular_maxcut(4, seed=4)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.3, 0.5])
    noise = NoiseModel(p1=0.005, p2=0.01)
    analytic = ansatz.expectation(params, noise=noise)
    exact = simulate_density(ansatz.circuit(params), noise).expectation_diagonal(
        problem.cost_diagonal()
    )
    spread = problem.cost_diagonal().std()
    assert analytic == pytest.approx(exact, abs=0.10 * spread)


def test_shot_noise_converges(rng):
    problem = random_3_regular_maxcut(4, seed=5)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.15, -0.3])
    exact = ansatz.expectation(params)
    sampled = ansatz.expectation(params, shots=40000, rng=rng)
    assert sampled == pytest.approx(exact, abs=0.05)


def test_parameter_names_layout():
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=2)
    assert ansatz.parameter_names() == ["beta_0", "beta_1", "gamma_0", "gamma_1"]


def test_circuit_gate_structure():
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=2)
    circuit = ansatz.circuit(np.array([0.1, 0.2, 0.3, 0.4]))
    counts = circuit.count_gates()
    assert counts["h"] == 6
    assert counts["rzz"] == 2 * len(problem.couplings)
    assert counts["rx"] == 12


def test_cost_diagonal_copy_is_defensive():
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
    diag = ansatz.cost_diagonal
    diag[:] = 0.0
    assert not np.allclose(ansatz.cost_diagonal, 0.0)
