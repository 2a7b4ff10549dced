"""Qubit readout mitigation (QRM).

The shot-frugal mitigation of Sec. 2.3: build the readout confusion
matrix from calibration, then filter measurement errors by applying its
(pseudo-)inverse to observed outcome distributions in classical
post-processing.  No extra circuit executions beyond calibration.

For the symmetric independent-flip model used by
:class:`~repro.quantum.noise.NoiseModel`, the confusion matrix is a
Kronecker power of a 2x2 stochastic matrix, so inversion factorises per
qubit and costs ``O(n 2^n)`` instead of ``O(8^n)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ReadoutMitigator"]


class ReadoutMitigator:
    """Inverts an independent symmetric readout-error channel."""

    def __init__(self, num_qubits: int, flip_probability: float):
        if not 0.0 <= flip_probability < 0.5:
            raise ValueError(
                "flip probability must be in [0, 0.5) for an invertible channel"
            )
        self.num_qubits = int(num_qubits)
        self.flip_probability = float(flip_probability)
        p = self.flip_probability
        self._single = np.array([[1.0 - p, p], [p, 1.0 - p]])
        self._single_inverse = np.linalg.inv(self._single)

    def confusion_matrix(self) -> np.ndarray:
        """The full ``2**n x 2**n`` confusion matrix (small n only)."""
        matrix = np.array([[1.0]])
        for _ in range(self.num_qubits):
            matrix = np.kron(self._single, matrix)
        return matrix

    def _apply_factorised(self, probabilities: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        probs = np.asarray(probabilities, dtype=float)
        expected = 1 << self.num_qubits
        if probs.shape[0] != expected:
            raise ValueError(
                f"expected a distribution over {expected} outcomes, got {probs.shape[0]}"
            )
        tensor = probs.reshape([2] * self.num_qubits)
        for axis in range(self.num_qubits):
            tensor = np.tensordot(matrix, tensor, axes=([1], [axis]))
            tensor = np.moveaxis(tensor, 0, axis)
        return tensor.reshape(-1)

    def corrupt(self, probabilities: np.ndarray) -> np.ndarray:
        """Forward channel: what the device reports for true outcomes."""
        return self._apply_factorised(probabilities, self._single)

    def mitigate_probabilities(self, observed: np.ndarray) -> np.ndarray:
        """Invert the channel on an observed outcome distribution.

        Matrix inversion can produce small negative quasi-probabilities
        from sampling noise; they are clamped to zero and the
        distribution renormalised (the standard practical fix).
        """
        recovered = self._apply_factorised(observed, self._single_inverse)
        recovered = np.clip(recovered, 0.0, None)
        total = recovered.sum()
        if total > 0:
            recovered = recovered / total
        return recovered

    def mitigate_expectation_diagonal(
        self, observed: np.ndarray, diagonal_values: np.ndarray
    ) -> float:
        """Mitigated expectation of a diagonal observable."""
        mitigated = self.mitigate_probabilities(observed)
        return float(np.dot(mitigated, diagonal_values))
