"""Probabilistic Error Cancellation (PEC).

PEC (Temme, Bravyi & Gambetta, PRL 119, 180509 (2017)) — the last
mitigation family in the paper's Sec. 2.3 — inverts each noise channel
by expressing its inverse as a *quasi-probability* mixture of
implementable operations, sampling circuits from that mixture with
signs, and averaging sign-weighted outcomes.

For the single-qubit depolarizing channel with Pauli-error probability
``p`` (our :func:`~repro.quantum.noise.depolarizing_kraus` convention),
the inverse channel is

    D_p^{-1} = c_I * I  -  c_P * (X + Y + Z)/3,

with positive weights derived below; the sampling overhead is the
"gamma factor" ``gamma = c_I + c_P``, and the mitigated estimator's
standard deviation grows as ``gamma^G`` over ``G`` noisy gates — the
well-known exponential cost of PEC that makes it impractical for whole
landscapes, which is exactly why OSCAR-style benchmarking matters.

Implementation strategy: simulate the target circuit on a statevector,
inserting after each gate (a) a sampled Pauli error (the device noise)
and (b) a sampled inverse-channel operation with its sign.  Averaging sign-weighted expectations converges to the ideal
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..quantum.circuit import QuantumCircuit
from ..quantum.gates import X, Y, Z
from ..quantum.noise import NoiseModel
from ..quantum.statevector import Statevector
from ..utils import ensure_rng

__all__ = ["inverse_depolarizing_quasiprobability", "pec_gamma_factor", "PecEstimator"]

_PAULIS = (X, Y, Z)


def inverse_depolarizing_quasiprobability(probability: float) -> tuple[float, float]:
    """Quasi-probability weights of the inverse depolarizing channel.

    The depolarizing channel with Pauli-error probability ``p`` scales
    every Pauli expectation by ``s = 1 - 4p/3``.  Its inverse applies
    identity with weight ``c_I`` and each Pauli with weight ``-c_P/3``
    where (solving the two-point channel equations)

        c_I = (1/s + 1) / 2 + ... -> c_I = (3 + s) / (4 s) ... simplified:
        c_I = 1 + 3 (1 - s) / (4 s),   c_P = 3 (1 - s) / (4 s) * ...

    Concretely: the inverse scales Paulis by ``1/s`` and the identity by
    1, giving ``c_I = (1 + 3/s) / 4`` and ``c_P = 3 (1/s - 1) / 4``
    (both derived from the Pauli transfer representation).

    Returns:
        ``(c_identity, c_pauli_total)`` with
        ``c_identity - c_pauli_total = 1`` (trace preservation) and the
        gamma factor being their sum.
    """
    if not 0.0 <= probability < 0.75:
        raise ValueError("depolarizing probability must be in [0, 0.75)")
    scale = 1.0 - 4.0 * probability / 3.0
    c_identity = (1.0 + 3.0 / scale) / 4.0
    c_pauli_total = 3.0 * (1.0 / scale - 1.0) / 4.0
    return c_identity, c_pauli_total


def pec_gamma_factor(probability: float) -> float:
    """Per-channel sampling-overhead factor ``gamma >= 1``."""
    c_identity, c_pauli_total = inverse_depolarizing_quasiprobability(probability)
    return c_identity + c_pauli_total


@dataclass
class PecEstimator:
    """Sign-weighted Monte-Carlo PEC estimator over sampled statevector runs.

    Attributes:
        noise: device noise model.  Single-qubit channels are inverted
            exactly.  The two-qubit depolarizing channel is approximated
            by independent single-qubit channels whose strength is
            calibrated so that *weight-2* Pauli observables (the ZZ
            couplings that make up QAOA cost Hamiltonians) invert
            exactly to first order: ``(1 - 4 p_eff/3)^2 = 1 - 16 p/15``
            gives ``p_eff ~ 2p/5``.
        num_samples: quasi-probability circuit samples to average.
    """

    noise: NoiseModel
    num_samples: int = 256

    def _effective_probability(self, arity: int) -> float:
        if arity == 1:
            return self.noise.p1
        # Calibrated for weight-2 observables: solve exactly rather than
        # to first order: p_eff = (3/4) * (1 - sqrt(1 - 16 p / 15)).
        inner = max(0.0, 1.0 - 16.0 * self.noise.p2 / 15.0)
        return 0.75 * (1.0 - math.sqrt(inner))

    def total_gamma(self, circuit: QuantumCircuit) -> float:
        """Overall sampling overhead ``prod_gates gamma_gate``."""
        gamma = 1.0
        for instruction in circuit.instructions:
            probability = self._effective_probability(len(instruction.qubits))
            if probability > 0.0:
                gamma *= pec_gamma_factor(probability) ** len(instruction.qubits)
        return gamma

    def estimate(
        self,
        circuit: QuantumCircuit,
        diagonal_values: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> float:
        """PEC-mitigated expectation of a diagonal observable."""
        rng = ensure_rng(rng)
        total = 0.0
        for _ in range(self.num_samples):
            sign, state = self._sample_once(circuit, rng)
            total += sign * state.expectation_diagonal(diagonal_values)
        return total / self.num_samples

    def _sample_once(
        self, circuit: QuantumCircuit, rng: np.random.Generator
    ) -> tuple[float, Statevector]:
        """One quasi-probability sample: noise + sampled inverse."""
        state = Statevector(circuit.num_qubits)
        sign = 1.0
        for name, qubits, matrix in circuit.resolved_operations():
            state.apply_gate(name, qubits, matrix)
            probability = self._effective_probability(len(qubits))
            if probability <= 0.0:
                continue
            for qubit in qubits:
                # (a) the device's error.
                if rng.random() < probability:
                    state.apply_one_qubit(_PAULIS[rng.integers(0, 3)], qubit)
                # (b) the sampled inverse-channel operation.
                c_identity, c_pauli_total = inverse_depolarizing_quasiprobability(
                    probability
                )
                gamma = c_identity + c_pauli_total
                if rng.random() < c_identity / gamma:
                    pass  # identity branch, positive sign
                else:
                    state.apply_one_qubit(_PAULIS[rng.integers(0, 3)], qubit)
                    sign = -sign
                sign *= gamma  # importance weight folds into the sign
        return sign, state
