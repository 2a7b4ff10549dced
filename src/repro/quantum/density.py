"""Exact density-matrix simulation with Kraus noise channels.

This is the reference noisy simulator: it applies each circuit gate as a
unitary conjugation and, when a :class:`~repro.quantum.noise.NoiseModel`
is supplied, follows it with the corresponding depolarizing channel on
the touched qubits.  Memory is ``O(4**n)`` so it is intended for the
small-n experiments (Tables 2-3 run at 4-6 qubits) and as the oracle
that the batched engines and the analytic QAOA noise contraction are
validated against.

Operator application delegates to the contraction step shared with
:class:`~repro.quantum.batched_density.BatchedDensityMatrix` (``B = 1``,
transposed back to ``2**n x 2**n`` after each operator): a gate on
``k`` qubits is one matmul of its ``4**k x 4**k`` superoperator with the
rank-``2n`` tensor instead of a full ``2**n x 2**n`` embedding, so the
serial oracle is ``O(4**n)`` per gate rather than ``O(8**n)`` — same
values, one shared implementation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .batched_density import apply_kraus_stack, conjugate_stack
from .circuit import QuantumCircuit
from .noise import (
    NoiseModel,
    apply_readout_noise_to_probabilities,
    kraus_stack,
)

__all__ = ["DensityMatrix", "simulate_density"]


class DensityMatrix:
    """A ``2**n x 2**n`` density operator with channel application."""

    def __init__(self, num_qubits: int, data: np.ndarray | None = None):
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            self._data = np.zeros((dim, dim), dtype=complex)
            self._data[0, 0] = 1.0
        else:
            data = np.asarray(data, dtype=complex)
            if data.shape != (dim, dim):
                raise ValueError(
                    f"density matrix shape {data.shape} does not match {num_qubits} qubits"
                )
            self._data = data.copy()

    @classmethod
    def from_statevector(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        """Pure-state density matrix ``|psi><psi|``."""
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        num_qubits = int(np.log2(amplitudes.shape[0]))
        return cls(num_qubits, np.outer(amplitudes, amplitudes.conj()))

    @property
    def data(self) -> np.ndarray:
        """The underlying matrix (live view)."""
        return self._data

    def trace(self) -> float:
        """Real part of the trace (should stay 1 for valid evolution)."""
        return float(np.real(np.trace(self._data)))

    def purity(self) -> float:
        """``Tr(rho^2)``; 1 for pure states, 1/2**n for maximally mixed."""
        return float(np.real(np.sum(self._data * self._data.T)))

    # -- channel application --------------------------------------------

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Conjugate the state by a local unitary.

        ``matrix`` is interpreted with the first operand as the low
        index bit when ``len(qubits) == 1`` and in ``|q1 q0>`` order for
        pairs (``qubits[1]`` high bit), matching
        :mod:`repro.quantum.gates`.  Applied as one local superoperator
        contraction — the operator is never embedded into the full
        Hilbert space.
        """
        matrix = np.asarray(matrix, dtype=complex)
        self._data = conjugate_stack(
            self._data[None], matrix, tuple(qubits), self.num_qubits
        )[0]

    def apply_kraus(
        self, kraus_operators: Sequence[np.ndarray], qubits: Sequence[int]
    ) -> None:
        """Apply a quantum channel given by local Kraus operators."""
        stack = np.asarray(kraus_operators, dtype=complex)
        self._data = apply_kraus_stack(
            self._data[None], stack, tuple(qubits), self.num_qubits
        )[0]

    def evolve(
        self,
        circuit: QuantumCircuit,
        noise: NoiseModel | None = None,
    ) -> "DensityMatrix":
        """Apply the circuit, inserting noise channels after each gate.

        Channel operator lists come from the per-(kind, probability)
        cache (:func:`repro.quantum.noise.kraus_stack`), so repeated
        gates at the same error rate share one stack.
        """
        noise = noise or NoiseModel()
        for name, qubits, matrix in circuit.resolved_operations():
            if name == "cx":
                operands = (qubits[1], qubits[0])  # control is the high bit
            else:
                operands = tuple(qubits)
            self.apply_unitary(matrix, operands)
            probability = noise.error_probability(len(qubits))
            if probability > 0.0:
                kind = (
                    "depolarizing"
                    if len(qubits) == 1
                    else "two_qubit_depolarizing"
                )
                self.apply_kraus(kraus_stack(kind, probability), operands)
        return self

    # -- measurement -----------------------------------------------------

    def probabilities(self, readout_error: float = 0.0) -> np.ndarray:
        """Diagonal outcome probabilities, optionally readout-corrupted."""
        probs = np.real(np.diag(self._data)).copy()
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total > 0:
            probs /= total
        if readout_error > 0.0:
            probs = apply_readout_noise_to_probabilities(probs, readout_error)
        return probs

    def expectation_diagonal(
        self, diagonal_values: np.ndarray, readout_error: float = 0.0
    ) -> float:
        """Expectation of a diagonal observable (cost Hamiltonian)."""
        return float(np.dot(self.probabilities(readout_error), diagonal_values))

    def expectation_matrix(self, observable: np.ndarray) -> float:
        """``Tr(rho O)`` for a dense Hermitian observable.

        ``Tr(rho O) = sum_ij rho_ij O_ji``, computed as one ``O(4**n)``
        elementwise sum — a full ``rho @ O`` matmul would cost
        ``O(8**n)`` to produce off-diagonal entries the trace discards.
        """
        observable = np.asarray(observable)
        return float(np.real(np.sum(self._data * observable.T)))


def simulate_density(
    circuit: QuantumCircuit, noise: NoiseModel | None = None
) -> DensityMatrix:
    """Run a circuit from ``|0...0><0...0|`` under a noise model."""
    return DensityMatrix(circuit.num_qubits).evolve(circuit, noise)
