"""Exact statevector simulation.

The engine stores the state as a flat complex vector of length ``2**n``
(little endian: qubit 0 is the least significant index bit) and applies
gates by reshaping to a rank-``n`` tensor and contracting on the target
axes.  This is the standard dense simulation strategy; it is exact and,
for the ≤ 20-qubit circuits this reproduction runs, fast enough on one
CPU core.

Circuit gates always go through the tensor contraction.
:meth:`Statevector.apply_diagonal` is the separate elementwise path QAOA
uses for its cost layer: one multiply by a precomputed phase vector,
which is what makes dense QAOA landscape grids cheap.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..utils import ensure_rng
from .circuit import QuantumCircuit

__all__ = ["Statevector", "simulate"]


class Statevector:
    """A mutable ``2**n`` complex state with gate application methods."""

    def __init__(self, num_qubits: int, data: np.ndarray | None = None):
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            self._data = np.zeros(dim, dtype=complex)
            self._data[0] = 1.0
        else:
            data = np.asarray(data, dtype=complex).reshape(-1)
            if data.shape[0] != dim:
                raise ValueError(
                    f"state length {data.shape[0]} does not match {num_qubits} qubits"
                )
            self._data = data.copy()

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a computational basis state from a bitstring label.

        The label reads left-to-right as qubit ``n-1 .. 0`` (the usual
        ket convention), e.g. ``"10"`` is qubit1=1, qubit0=0.
        """
        num_qubits = len(label)
        index = int(label, 2)
        state = cls(num_qubits)
        state._data[0] = 0.0
        state._data[index] = 1.0
        return state

    @property
    def data(self) -> np.ndarray:
        """The underlying amplitude vector (a live view)."""
        return self._data

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**n``."""
        return self._data.shape[0]

    def copy(self) -> "Statevector":
        """An independent copy of the state."""
        return Statevector(self.num_qubits, self._data)

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self._data))

    def probabilities(self) -> np.ndarray:
        """Probability of each computational basis outcome."""
        return np.abs(self._data) ** 2

    # -- gate application ----------------------------------------------

    def apply_one_qubit(self, matrix: np.ndarray, qubit: int) -> None:
        """Apply a 2x2 unitary to ``qubit`` in place."""
        n = self.num_qubits
        tensor = self._data.reshape([2] * n)
        # Axis ordering: reshape puts qubit n-1 first, qubit 0 last.
        axis = n - 1 - qubit
        tensor = np.moveaxis(tensor, axis, 0)
        shape = tensor.shape
        tensor = matrix @ tensor.reshape(2, -1)
        tensor = np.moveaxis(tensor.reshape(shape), 0, axis)
        self._data = np.ascontiguousarray(tensor).reshape(-1)

    def apply_two_qubit(self, matrix: np.ndarray, qubit0: int, qubit1: int) -> None:
        """Apply a 4x4 unitary to ``(qubit0, qubit1)`` in place.

        The matrix is interpreted in the ``|q1 q0>`` basis used by
        :mod:`repro.quantum.gates`: ``qubit1`` is the high index bit.
        For :data:`~repro.quantum.gates.CX`, operand order
        ``(control, target)`` maps to ``qubit1 = control``.
        """
        n = self.num_qubits
        tensor = self._data.reshape([2] * n)
        axis1 = n - 1 - qubit1  # high bit
        axis0 = n - 1 - qubit0  # low bit
        tensor = np.moveaxis(tensor, (axis1, axis0), (0, 1))
        shape = tensor.shape
        tensor = matrix @ tensor.reshape(4, -1)
        tensor = np.moveaxis(tensor.reshape(shape), (0, 1), (axis1, axis0))
        self._data = np.ascontiguousarray(tensor).reshape(-1)

    def apply_diagonal(self, diagonal: np.ndarray) -> None:
        """Multiply the full state elementwise by a length-``2**n``
        phase vector (the QAOA cost-layer fast path)."""
        diagonal = np.asarray(diagonal)
        if diagonal.shape != self._data.shape:
            raise ValueError("diagonal length does not match state dimension")
        self._data *= diagonal

    def apply_gate(self, name: str, qubits: Sequence[int], matrix: np.ndarray) -> None:
        """Apply a named gate; dispatches on arity."""
        if len(qubits) == 1:
            self.apply_one_qubit(matrix, qubits[0])
        elif len(qubits) == 2:
            if name == "cx":
                # Operands are (control, target): control is the high bit.
                self.apply_two_qubit(matrix, qubit0=qubits[1], qubit1=qubits[0])
            else:
                self.apply_two_qubit(matrix, qubit0=qubits[0], qubit1=qubits[1])
        else:  # pragma: no cover - the IR only emits 1q/2q gates
            raise ValueError(f"unsupported gate arity {len(qubits)}")

    def evolve(self, circuit: QuantumCircuit) -> "Statevector":
        """Apply all circuit instructions in place; returns ``self``."""
        for name, qubits, matrix in circuit.resolved_operations():
            self.apply_gate(name, qubits, matrix)
        return self

    # -- measurement ----------------------------------------------------

    def expectation_diagonal(self, diagonal_values: np.ndarray) -> float:
        """``<psi| D |psi>`` for a real diagonal observable ``D``."""
        probabilities = self.probabilities()
        return float(np.real(np.dot(probabilities, diagonal_values)))

    def expectation_matrix(self, observable: np.ndarray) -> float:
        """``<psi| O |psi>`` for a dense Hermitian observable."""
        return float(np.real(np.vdot(self._data, observable @ self._data)))

    def sample_counts(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[int, int]:
        """Sample measurement outcomes; returns ``{basis_index: count}``."""
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        rng = ensure_rng(rng)
        probabilities = self.probabilities()
        total = probabilities.sum()
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            # Guard against tiny negative round-off before renormalizing.
            probabilities = np.clip(probabilities, 0.0, None)
            probabilities /= probabilities.sum()
        outcomes = rng.choice(self.dim, size=shots, p=probabilities)
        values, counts = np.unique(outcomes, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def sample_expectation_diagonal(
        self,
        diagonal_values: np.ndarray,
        shots: int,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Shot-noise estimate of a diagonal observable's expectation."""
        rng = ensure_rng(rng)
        counts = self.sample_counts(shots, rng)
        total = 0.0
        for index, count in counts.items():
            total += diagonal_values[index] * count
        return total / shots

    def fidelity(self, other: "Statevector") -> float:
        """``|<self|other>|^2``."""
        return float(abs(np.vdot(self._data, other._data)) ** 2)


def simulate(circuit: QuantumCircuit) -> Statevector:
    """Run a circuit from ``|0...0>`` and return the final state."""
    return Statevector(circuit.num_qubits).evolve(circuit)
