"""Unit tests for repro.quantum.gates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quantum import gates

ANGLES = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi)

FIXED_GATES = [gates.I, gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.SDG,
               gates.CX, gates.CZ]


@pytest.mark.parametrize("matrix", FIXED_GATES)
def test_fixed_gates_are_unitary(matrix):
    assert gates.is_unitary(matrix)


@given(theta=ANGLES)
def test_rotation_gates_are_unitary(theta):
    for factory in (gates.rx, gates.ry, gates.rz,
                    gates.rxx, gates.ryy, gates.rzz):
        assert gates.is_unitary(factory(theta))


def test_pauli_matrices_are_hermitian_and_self_inverse():
    for label, matrix in gates.PAULI_MATRICES.items():
        assert gates.is_hermitian(matrix), label
        assert np.allclose(matrix @ matrix, np.eye(2)), label


def test_hadamard_maps_z_to_x():
    assert np.allclose(gates.H @ gates.Z @ gates.H, gates.X)


def test_pauli_commutation_xy_equals_iz():
    assert np.allclose(gates.X @ gates.Y, 1j * gates.Z)


@given(theta=ANGLES)
def test_rotation_composition(theta):
    """RZ angles add: RZ(a) RZ(b) = RZ(a + b)."""
    a, b = theta, 0.7
    assert np.allclose(gates.rz(a) @ gates.rz(b), gates.rz(a + b))


def test_rx_at_pi_is_minus_i_x():
    assert np.allclose(gates.rx(math.pi), -1j * gates.X)


def test_ry_at_pi_over_2_maps_zero_to_plus():
    state = gates.ry(math.pi / 2) @ np.array([1.0, 0.0])
    assert np.allclose(state, np.array([1.0, 1.0]) / math.sqrt(2))


def test_rzz_is_diagonal():
    matrix = gates.rzz(0.37)
    assert np.allclose(matrix, np.diag(np.diag(matrix)))


def test_rzz_matches_exponential():
    theta = 0.81
    zz = np.kron(gates.Z, gates.Z)
    from scipy.linalg import expm

    assert np.allclose(gates.rzz(theta), expm(-1j * theta / 2 * zz))


def test_rxx_matches_exponential():
    theta = -1.13
    xx = np.kron(gates.X, gates.X)
    from scipy.linalg import expm

    assert np.allclose(gates.rxx(theta), expm(-1j * theta / 2 * xx))


def test_cx_action_on_basis_states():
    # |q1 q0> ordering with q1 = control: |10> -> |11>, |11> -> |10>.
    basis = np.eye(4)
    assert np.allclose(gates.CX @ basis[:, 2], basis[:, 3])
    assert np.allclose(gates.CX @ basis[:, 3], basis[:, 2])
    assert np.allclose(gates.CX @ basis[:, 0], basis[:, 0])
    assert np.allclose(gates.CX @ basis[:, 1], basis[:, 1])


def test_gate_matrix_dispatch_fixed():
    assert np.allclose(gates.gate_matrix("h"), gates.H)
    assert np.allclose(gates.gate_matrix("CX"), gates.CX)


def test_gate_matrix_dispatch_parametric():
    assert np.allclose(gates.gate_matrix("rx", (0.5,)), gates.rx(0.5))


def test_gate_matrix_unknown_gate_raises():
    with pytest.raises(KeyError):
        gates.gate_matrix("foo")


def test_gate_matrix_fixed_gate_with_params_raises():
    with pytest.raises(TypeError):
        gates.gate_matrix("x", (0.5,))


def test_is_unitary_rejects_non_square():
    assert not gates.is_unitary(np.ones((2, 3)))


def test_is_unitary_rejects_scaled_identity():
    assert not gates.is_unitary(2.0 * np.eye(2))


def test_is_hermitian_rejects_non_hermitian():
    assert not gates.is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
