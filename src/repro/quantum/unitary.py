"""Dense circuit-unitary construction (verification tooling).

Building the full ``2^n x 2^n`` unitary of a circuit is exponential, but
for the small circuits used in tests and debugging it is the most
direct way to verify gate semantics, check equivalence of two circuits,
and cross-validate the statevector engine.  This module provides that
reference path; production simulation never goes through it.
"""

from __future__ import annotations

import numpy as np

from .circuit import QuantumCircuit

__all__ = ["circuit_unitary", "circuits_equivalent"]


def _embed_one(matrix: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for position in range(num_qubits - 1, -1, -1):
        out = np.kron(out, matrix if position == qubit else np.eye(2))
    return out


def _embed_two(
    matrix: np.ndarray, low: int, high: int, num_qubits: int
) -> np.ndarray:
    """Embed a ``|q_high q_low>``-ordered 4x4 operator."""
    dim = 1 << num_qubits
    tensor = matrix.reshape(2, 2, 2, 2)  # (high', low', high, low)
    out = np.zeros((dim, dim), dtype=complex)
    others_mask = ~((1 << low) | (1 << high)) & (dim - 1)
    for column in range(dim):
        bit_low = (column >> low) & 1
        bit_high = (column >> high) & 1
        base = column & others_mask
        for new_high in range(2):
            for new_low in range(2):
                amplitude = tensor[new_high, new_low, bit_high, bit_low]
                if amplitude != 0:
                    row = base | (new_low << low) | (new_high << high)
                    out[row, column] += amplitude
    return out


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The full unitary matrix implemented by a circuit.

    The matrix takes ``4^n`` memory, so circuits wider than 10 qubits
    are refused.
    """
    if circuit.num_qubits > 10:
        raise ValueError(
            f"refusing to materialise a {circuit.num_qubits}-qubit unitary "
            "(cap 10)"
        )
    n = circuit.num_qubits
    total = np.eye(1 << n, dtype=complex)
    for name, qubits, matrix in circuit.resolved_operations():
        if len(qubits) == 1:
            full = _embed_one(matrix, qubits[0], n)
        else:
            if name == "cx":
                low, high = qubits[1], qubits[0]  # control is the high bit
            else:
                low, high = qubits[0], qubits[1]
            full = _embed_two(matrix, low, high, n)
        total = full @ total
    return total


def circuits_equivalent(left: QuantumCircuit, right: QuantumCircuit) -> bool:
    """Check whether two equal-width circuits implement the same unitary
    up to a global phase (physically unobservable), elementwise to 1e-9.
    """
    if left.num_qubits != right.num_qubits:
        return False
    u = circuit_unitary(left)
    v = circuit_unitary(right)
    # Align phases on the largest element of v.
    index = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    phase = u[index] / v[index]
    if not np.isclose(abs(phase), 1.0, atol=1e-6):
        return False
    return bool(np.allclose(u, v * phase, atol=1e-9))
