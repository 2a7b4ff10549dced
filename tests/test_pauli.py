"""Unit tests for the Pauli-string algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems import PauliString, PauliSum
from repro.quantum import Statevector

LABELS_3Q = st.text(alphabet="IXYZ", min_size=3, max_size=3)


def random_state(num_qubits: int, seed: int) -> Statevector:
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amplitudes /= np.linalg.norm(amplitudes)
    return Statevector(num_qubits, amplitudes)


def test_invalid_labels_raise():
    with pytest.raises(ValueError):
        PauliString("XQ")
    with pytest.raises(ValueError):
        PauliString("")


def test_basic_properties():
    term = PauliString("XZI", 0.5)
    assert term.num_qubits == 3
    assert term.weight == 2
    assert not term.is_diagonal
    assert PauliString("IZI").is_diagonal


@given(label=st.text(alphabet="IZ", min_size=3, max_size=3))
@settings(max_examples=20)
def test_diagonal_matches_matrix_diagonal(label):
    term = PauliString(label, 0.7)
    assert np.allclose(term.diagonal(), np.real(np.diag(term.matrix())))


def test_diagonal_of_offdiagonal_raises():
    with pytest.raises(ValueError):
        PauliString("XI").diagonal()


@given(label=LABELS_3Q, seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_expectation_matches_dense(label, seed):
    term = PauliString(label, 1.3)
    state = random_state(3, seed)
    dense = np.real(np.vdot(state.data, term.matrix() @ state.data))
    assert term.expectation(state) == pytest.approx(dense, abs=1e-10)


def test_expectation_width_mismatch_raises():
    with pytest.raises(ValueError):
        PauliString("X").expectation(Statevector(2))


def test_pauli_sum_merges_duplicates():
    total = PauliSum([PauliString("ZZ", 0.5), PauliString("ZZ", 0.25)])
    assert len(total) == 1
    assert total.terms[0].coefficient == pytest.approx(0.75)


def test_pauli_sum_drops_cancelled_terms():
    total = PauliSum([PauliString("XX", 1.0), PauliString("XX", -1.0)])
    assert len(total) == 1
    assert total.terms[0].coefficient == 0.0


def test_pauli_sum_width_mismatch_raises():
    with pytest.raises(ValueError):
        PauliSum([PauliString("X"), PauliString("XX")])


def test_pauli_sum_requires_terms():
    with pytest.raises(ValueError):
        PauliSum([])


def test_from_dict_and_expectation():
    hamiltonian = PauliSum.from_dict({"ZZ": 1.0, "XI": 0.5})
    state = random_state(2, seed=9)
    dense = np.real(np.vdot(state.data, hamiltonian.matrix() @ state.data))
    assert hamiltonian.expectation(state) == pytest.approx(dense, abs=1e-10)


def test_diagonal_sum_ground_energy():
    hamiltonian = PauliSum.from_dict({"ZZ": 1.0})
    # ZZ eigenvalues: +1 (00, 11), -1 (01, 10).
    assert hamiltonian.ground_energy() == pytest.approx(-1.0)
    assert hamiltonian.is_diagonal


def test_offdiagonal_ground_energy_matches_eigh():
    hamiltonian = PauliSum.from_dict({"XX": 0.5, "ZI": 0.3, "IZ": -0.2})
    eigenvalues = np.linalg.eigvalsh(hamiltonian.matrix())
    assert hamiltonian.ground_energy() == pytest.approx(float(eigenvalues[0]))
