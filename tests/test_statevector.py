"""Unit tests for repro.quantum.statevector.

The key property test checks the tensor-reshape gate application
against an explicit dense Kronecker-product reference on random states.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum import QuantumCircuit, Statevector
from repro.quantum.gates import CX, CZ, H, X, rx, ry, rzz
from repro.quantum.statevector import simulate


def random_state(num_qubits: int, seed: int) -> Statevector:
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amplitudes /= np.linalg.norm(amplitudes)
    return Statevector(num_qubits, amplitudes)


def dense_one_qubit(matrix: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Reference embedding: kron in qubit order n-1 .. 0."""
    out = np.array([[1.0]], dtype=complex)
    for position in range(num_qubits - 1, -1, -1):
        out = np.kron(out, matrix if position == qubit else np.eye(2))
    return out


def test_initial_state_is_all_zeros():
    state = Statevector(3)
    assert state.data[0] == 1.0
    assert np.allclose(state.probabilities()[1:], 0.0)


def test_from_label():
    state = Statevector.from_label("10")
    # qubit1 = 1, qubit0 = 0 -> index 2
    assert state.data[2] == 1.0


def test_dimension_validation():
    with pytest.raises(ValueError):
        Statevector(2, np.ones(3))


@settings(max_examples=20, deadline=None)
@given(qubit=st.integers(min_value=0, max_value=3), seed=st.integers(0, 100),
       theta=st.floats(-3.0, 3.0))
def test_one_qubit_application_matches_dense(qubit, seed, theta):
    n = 4
    state = random_state(n, seed)
    reference = dense_one_qubit(rx(theta), qubit, n) @ state.data
    state.apply_one_qubit(rx(theta), qubit)
    assert np.allclose(state.data, reference)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100), pair=st.sampled_from([(0, 1), (1, 2), (0, 3), (2, 0), (3, 1)]))
def test_two_qubit_application_matches_dense(seed, pair):
    n = 4
    q0, q1 = pair
    state = random_state(n, seed)
    # Dense reference: permute CZ onto (q1 high, q0 low) via index maps.
    matrix = rzz(0.77)
    tensor = matrix.reshape(2, 2, 2, 2)
    dense = np.zeros((1 << n, 1 << n), dtype=complex)
    for col in range(1 << n):
        b0 = (col >> q0) & 1
        b1 = (col >> q1) & 1
        for a1 in range(2):
            for a0 in range(2):
                row = (col & ~((1 << q0) | (1 << q1))) | (a0 << q0) | (a1 << q1)
                dense[row, col] += tensor[a1, a0, b1, b0]
    reference = dense @ state.data
    state.apply_two_qubit(matrix, qubit0=q0, qubit1=q1)
    assert np.allclose(state.data, reference)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 50))
def test_norm_preserved_by_random_circuit(seed):
    rng = np.random.default_rng(seed)
    n = 4
    qc = QuantumCircuit(n)
    for _ in range(15):
        kind = rng.integers(0, 3)
        if kind == 0:
            qc.rx(float(rng.normal()), int(rng.integers(0, n)))
        elif kind == 1:
            qc.h(int(rng.integers(0, n)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            qc.cx(int(a), int(b))
    state = simulate(qc)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_cx_control_target_convention():
    qc = QuantumCircuit(2)
    qc.x(0)        # set qubit 0 (control)
    qc.cx(0, 1)    # should flip qubit 1
    state = simulate(qc)
    assert state.probabilities()[3] == pytest.approx(1.0)  # |11>


def test_cx_does_nothing_when_control_clear():
    qc = QuantumCircuit(2)
    qc.cx(0, 1)
    state = simulate(qc)
    assert state.probabilities()[0] == pytest.approx(1.0)


def test_bell_state_probabilities():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    probs = simulate(qc).probabilities()
    assert probs[0] == pytest.approx(0.5)
    assert probs[3] == pytest.approx(0.5)


def test_apply_diagonal_fast_path_matches_gate_path():
    n = 3
    gamma = 0.6
    # RZZ(2 gamma) on (0,1) equals diagonal exp(-i gamma z0 z1).
    qc = QuantumCircuit(n)
    for q in range(n):
        qc.h(q)
    qc.rzz(2 * gamma, 0, 1)
    via_gates = simulate(qc)

    state = Statevector(n, np.full(1 << n, 1 / np.sqrt(1 << n), dtype=complex))
    indices = np.arange(1 << n)
    z0 = 1.0 - 2.0 * (indices & 1)
    z1 = 1.0 - 2.0 * ((indices >> 1) & 1)
    state.apply_diagonal(np.exp(-1j * gamma * z0 * z1))
    assert np.allclose(state.data, via_gates.data)


def test_apply_diagonal_shape_mismatch_raises():
    state = Statevector(2)
    with pytest.raises(ValueError):
        state.apply_diagonal(np.ones(3))


def test_expectation_diagonal_matches_matrix():
    state = random_state(3, seed=7)
    diagonal = np.arange(8.0)
    dense = np.diag(diagonal)
    assert state.expectation_diagonal(diagonal) == pytest.approx(
        state.expectation_matrix(dense)
    )


def test_sample_counts_statistics(rng):
    qc = QuantumCircuit(1).h(0)
    state = simulate(qc)
    counts = state.sample_counts(4000, rng)
    assert sum(counts.values()) == 4000
    assert counts[0] == pytest.approx(2000, abs=200)


def test_sample_expectation_converges(rng):
    state = random_state(3, seed=3)
    diagonal = np.linspace(-1, 1, 8)
    exact = state.expectation_diagonal(diagonal)
    estimate = state.sample_expectation_diagonal(diagonal, shots=20000, rng=rng)
    assert estimate == pytest.approx(exact, abs=0.05)


def test_fidelity_of_orthogonal_states():
    zero = Statevector.from_label("0")
    one = Statevector.from_label("1")
    assert zero.fidelity(one) == pytest.approx(0.0)
    assert zero.fidelity(zero) == pytest.approx(1.0)
