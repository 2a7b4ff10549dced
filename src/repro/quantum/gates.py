"""Quantum gate matrices and helpers.

This module is the lowest layer of the simulation substrate: plain
``numpy`` unitaries for the 12 gates the ansatz library (QAOA,
Two-local, UCCSD-style) and the dynamical-decoupling pass emit, the
Pauli matrices, and small utilities for validating them.

All matrices use the little-endian qubit convention adopted throughout
``repro.quantum``: qubit 0 is the least significant bit of a basis-state
index.  Two-qubit gate matrices act on basis states ordered
``|q1 q0>`` -> index ``2*q1 + q0``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "I",
    "X",
    "Y",
    "Z",
    "H",
    "S",
    "SDG",
    "CX",
    "CZ",
    "rx",
    "ry",
    "rz",
    "rxx",
    "ryy",
    "rzz",
    "rx_many",
    "ry_many",
    "rz_many",
    "rxx_many",
    "ryy_many",
    "rzz_many",
    "is_unitary",
    "is_hermitian",
    "gate_matrix",
    "gate_matrix_many",
    "PAULI_MATRICES",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

I = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T

PAULI_MATRICES = {"I": I, "X": X, "Y": Y, "Z": Z}

# Two-qubit gates in little-endian |q1 q0> ordering.  For the symmetric
# gates below (CZ, RZZ, ...) endianness does not matter; for CX we
# fix the convention control = first operand, target = second operand and
# build the matrix accordingly in ``Statevector.apply_two_qubit``.
CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def rx(theta: float) -> np.ndarray:
    """Rotation around X: ``exp(-i theta X / 2)``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation around Y: ``exp(-i theta Y / 2)``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Rotation around Z: ``exp(-i theta Z / 2)``."""
    phase = cmath.exp(-1j * theta / 2.0)
    return np.array([[phase, 0], [0, phase.conjugate()]], dtype=complex)


def _two_qubit_pauli_rotation(pauli_pair: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-i theta/2 * P (x) Q)`` for a Pauli tensor product."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return c * np.eye(4, dtype=complex) - 1j * s * pauli_pair


def rxx(theta: float) -> np.ndarray:
    """Two-qubit XX rotation ``exp(-i theta XX / 2)``."""
    return _two_qubit_pauli_rotation(np.kron(X, X), theta)


def ryy(theta: float) -> np.ndarray:
    """Two-qubit YY rotation ``exp(-i theta YY / 2)``."""
    return _two_qubit_pauli_rotation(np.kron(Y, Y), theta)


def rzz(theta: float) -> np.ndarray:
    """Two-qubit ZZ rotation ``exp(-i theta ZZ / 2)`` (diagonal)."""
    phase = cmath.exp(-1j * theta / 2.0)
    conj = phase.conjugate()
    return np.diag([phase, conj, conj, phase]).astype(complex)


def rx_many(thetas: np.ndarray) -> np.ndarray:
    """``(B, 2, 2)`` stack of :func:`rx` matrices, one per angle."""
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    stack = np.empty(thetas.shape + (2, 2), dtype=complex)
    stack[..., 0, 0] = c
    stack[..., 0, 1] = -1j * s
    stack[..., 1, 0] = -1j * s
    stack[..., 1, 1] = c
    return stack


def ry_many(thetas: np.ndarray) -> np.ndarray:
    """``(B, 2, 2)`` stack of :func:`ry` matrices, one per angle.

    The per-row operand shape
    :meth:`~repro.quantum.batched.BatchedStatevector.apply_one_qubit`
    accepts — a whole rotation layer with a different binding per row
    becomes one call.
    """
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    stack = np.empty(thetas.shape + (2, 2), dtype=complex)
    stack[..., 0, 0] = c
    stack[..., 0, 1] = -s
    stack[..., 1, 0] = s
    stack[..., 1, 1] = c
    return stack


def rz_many(thetas: np.ndarray) -> np.ndarray:
    """``(B, 2, 2)`` stack of :func:`rz` matrices, one per angle."""
    thetas = np.asarray(thetas, dtype=float)
    phase = np.exp(-0.5j * thetas)
    stack = np.zeros(thetas.shape + (2, 2), dtype=complex)
    stack[..., 0, 0] = phase
    stack[..., 1, 1] = np.conj(phase)
    return stack


def _two_qubit_pauli_rotation_many(
    pauli_pair: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    """``(B, 4, 4)`` stack of ``exp(-i theta/2 P (x) Q)`` rotations."""
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    return (
        c[..., None, None] * np.eye(4, dtype=complex)
        - 1j * s[..., None, None] * pauli_pair
    )


def rxx_many(thetas: np.ndarray) -> np.ndarray:
    """``(B, 4, 4)`` stack of :func:`rxx` matrices, one per angle."""
    return _two_qubit_pauli_rotation_many(np.kron(X, X), thetas)


def ryy_many(thetas: np.ndarray) -> np.ndarray:
    """``(B, 4, 4)`` stack of :func:`ryy` matrices, one per angle."""
    return _two_qubit_pauli_rotation_many(np.kron(Y, Y), thetas)


def rzz_many(thetas: np.ndarray) -> np.ndarray:
    """``(B, 4, 4)`` stack of :func:`rzz` matrices, one per angle."""
    thetas = np.asarray(thetas, dtype=float)
    phase = np.exp(-0.5j * thetas)
    stack = np.zeros(thetas.shape + (4, 4), dtype=complex)
    stack[..., 0, 0] = phase
    stack[..., 1, 1] = np.conj(phase)
    stack[..., 2, 2] = np.conj(phase)
    stack[..., 3, 3] = phase
    return stack


def is_unitary(matrix: np.ndarray) -> bool:
    """Check ``M @ M.conj().T == I`` within ``1e-10``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix @ matrix.conj().T, identity, atol=1e-10))


def is_hermitian(matrix: np.ndarray) -> bool:
    """Check ``M == M.conj().T`` within ``1e-10``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.conj().T, atol=1e-10))


_FIXED_GATES = {
    "x": X,
    "h": H,
    "s": S,
    "sdg": SDG,
    "cx": CX,
    "cz": CZ,
}

_PARAMETRIC_GATES = {
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "rxx": rxx,
    "ryy": ryy,
    "rzz": rzz,
}


_PARAMETRIC_GATES_MANY = {
    "rx": rx_many,
    "ry": ry_many,
    "rz": rz_many,
    "rxx": rxx_many,
    "ryy": ryy_many,
    "rzz": rzz_many,
}


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Resolve a gate name (and its angles) to its unitary matrix.

    Raises:
        KeyError: if the gate name is unknown.
        TypeError: if parameters are supplied for a fixed gate or missing
            for a parametric one.
    """
    key = name.lower()
    if key in _FIXED_GATES:
        if params:
            raise TypeError(f"gate {name!r} takes no parameters, got {params!r}")
        return _FIXED_GATES[key]
    if key in _PARAMETRIC_GATES:
        return _PARAMETRIC_GATES[key](*params)
    raise KeyError(f"unknown gate {name!r}")


def gate_matrix_many(name: str, angles: np.ndarray) -> np.ndarray:
    """``(B, d, d)`` stack of one rotation gate, one matrix per angle.

    Every parametric gate is a single-angle rotation with a ``*_many``
    constructor, which is what lets batched circuit replay resolve a
    parameterized position for a whole batch without a per-row Python
    matrix build.
    """
    return _PARAMETRIC_GATES_MANY[name.lower()](angles)
