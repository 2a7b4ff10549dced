"""Noise models for noisy circuit simulation.

The paper's noisy experiments use depolarizing noise attached to every
gate (1q error 0.003 / 2q error 0.007 in Fig. 4; 0.001 / 0.02 in Fig. 9)
plus device configurations for the NCM study (QPU-1: 0.1%/0.5%, QPU-2:
0.3%/0.7%).  :class:`NoiseModel` captures exactly this: per-arity
depolarizing probabilities plus an optional symmetric readout-flip
probability.

Two consumers share this model:

- the density engines (:mod:`repro.quantum.density`,
  :mod:`repro.quantum.batched_density`) apply the exact depolarizing
  Kraus channels, built and cached here by :func:`kraus_stack` and
  :func:`kraus_superop`,
- :func:`global_depolarizing_factor` gives the analytic contraction of a
  traceless observable's expectation under the model, which is how large
  landscapes are made noisy without exponential density matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import QuantumCircuit
from .gates import I, X, Y, Z

__all__ = [
    "NoiseModel",
    "depolarizing_kraus",
    "two_qubit_depolarizing_kraus",
    "kraus_stack",
    "kraus_superop",
    "global_depolarizing_factor",
    "readout_confusion_matrix",
    "apply_readout_noise_to_probabilities",
    "IDEAL",
]


def depolarizing_kraus(probability: float) -> list[np.ndarray]:
    """Single-qubit depolarizing channel Kraus operators.

    With probability ``p`` the qubit state is replaced by one of X/Y/Z
    errors uniformly (the "Pauli error" convention, matching Qiskit's
    ``depolarizing_error(p, 1)`` up to reparametrisation p' = 4p/3).
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be within [0, 1]")
    p_each = probability / 3.0
    return [
        math.sqrt(1.0 - probability) * I,
        math.sqrt(p_each) * X,
        math.sqrt(p_each) * Y,
        math.sqrt(p_each) * Z,
    ]


def two_qubit_depolarizing_kraus(probability: float) -> list[np.ndarray]:
    """Two-qubit depolarizing channel: the 15 non-identity Pauli pairs
    each occur with probability ``p / 15``."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be within [0, 1]")
    paulis = [I, X, Y, Z]
    kraus = [math.sqrt(1.0 - probability) * np.kron(I, I)]
    p_each = probability / 15.0
    for i, left in enumerate(paulis):
        for j, right in enumerate(paulis):
            if i == 0 and j == 0:
                continue
            kraus.append(math.sqrt(p_each) * np.kron(left, right))
    return kraus


#: Channel builders addressable by :func:`kraus_stack`.
_KRAUS_BUILDERS = {
    "depolarizing": depolarizing_kraus,
    "two_qubit_depolarizing": two_qubit_depolarizing_kraus,
}

#: Entries each channel cache keeps.  A request touches at most the two
#: kinds times its ZNE scale factors, so the bound only evicts when a
#: long-lived process (the daemon) has seen many distinct noise models.
_CHANNEL_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CHANNEL_CACHE_SIZE)
def kraus_stack(kind: str, probability: float) -> np.ndarray:
    """Cached, read-only ``(K, d, d)`` Kraus stack for a channel.

    The density engines apply the same channel after every gate of a
    circuit (and across every row of a batch), so the operator lists
    are memoized per ``(kind, probability)`` in a bounded LRU cache —
    the channel analogue of the per-(ansatz, noise)
    depolarizing-contraction cache in
    :class:`repro.ansatz.qaoa.QaoaAnsatz`.  ``kind`` is
    ``"depolarizing"`` or ``"two_qubit_depolarizing"``.  The returned
    array is marked read-only; callers must not mutate it.
    """
    builder = _KRAUS_BUILDERS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown channel kind {kind!r}; choose from {sorted(_KRAUS_BUILDERS)}"
        )
    stack = np.stack(builder(float(probability))).astype(complex)
    stack.setflags(write=False)
    return stack


@functools.lru_cache(maxsize=_CHANNEL_CACHE_SIZE)
def kraus_superop(kind: str, probability: float) -> np.ndarray:
    """Cached ``sum_k E_k (x) conj(E_k)`` superoperator for a channel.

    Acting on the row-major vectorisation of a density matrix's local
    block, one matmul with this ``(d**2, d**2)`` matrix applies the
    whole channel — the form the batched density engine composes with
    gate superoperators so each (gate, channel) pair costs a single
    contraction pass.  Cached per ``(kind, probability)`` like
    :func:`kraus_stack`; the returned array is read-only.
    """
    stack = kraus_stack(kind, probability)
    dim = stack.shape[-1]
    superop = np.einsum("kim,kjl->ijml", stack, np.conj(stack)).reshape(
        dim * dim, dim * dim
    )
    superop.setflags(write=False)
    return superop


@dataclass(frozen=True)
class NoiseModel:
    """Gate-attached depolarizing noise plus readout error.

    Attributes:
        p1: depolarizing probability after every single-qubit gate.
        p2: depolarizing probability after every two-qubit gate.
        readout: probability of a classical bit flip on measurement.
    """

    p1: float = 0.0
    p2: float = 0.0
    readout: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "readout"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    @property
    def is_ideal(self) -> bool:
        """True if the model introduces no errors at all."""
        return self.p1 == 0.0 and self.p2 == 0.0 and self.readout == 0.0

    def error_probability(self, arity: int) -> float:
        """Depolarizing probability for a gate of the given arity."""
        if arity == 1:
            return self.p1
        if arity == 2:
            return self.p2
        raise ValueError(f"unsupported gate arity {arity}")

    def cache_spec(self) -> dict:
        """Canonical content payload for the landscape store.

        The single source of the ``{p1, p2, readout}`` serialization —
        every cost function's ``cache_spec`` delegates here so noise
        content always hashes identically.
        """
        return {
            "p1": float(self.p1),
            "p2": float(self.p2),
            "readout": float(self.readout),
        }

    def scaled(self, factor: float) -> "NoiseModel":
        """Noise model with all error rates multiplied by ``factor``.

        Used by ZNE noise scaling; probabilities are clamped to [0, 1].
        """
        return NoiseModel(
            p1=min(1.0, self.p1 * factor),
            p2=min(1.0, self.p2 * factor),
            readout=min(1.0, self.readout * factor),
        )


IDEAL = NoiseModel()


def global_depolarizing_factor(circuit: QuantumCircuit, noise: NoiseModel) -> float:
    """Contraction factor of a traceless observable under the model.

    Each single-qubit depolarizing event with probability ``p`` scales
    Pauli expectations on that qubit by ``1 - 4p/3``; each two-qubit
    event scales involved Pauli pairs by ``1 - 16p/15``.  Treating
    errors as acting globally (a standard white-noise approximation for
    deep entangling circuits such as QAOA), the expected value of a
    traceless cost Hamiltonian contracts by the product over all gates.

    This is exact for a global depolarizing channel and a very good
    model of how depolarizing noise flattens QAOA landscapes, which is
    the phenomenon the paper's noisy experiments exercise.
    """
    if noise.is_ideal:
        return 1.0
    counts = {1: 0, 2: 0}
    for instruction in circuit.instructions:
        counts[len(instruction.qubits)] += 1
    factor_1q = 1.0 - (4.0 / 3.0) * noise.p1
    factor_2q = 1.0 - (16.0 / 15.0) * noise.p2
    factor = (factor_1q ** counts[1]) * (factor_2q ** counts[2])
    return float(max(factor, 0.0))


def readout_confusion_matrix(num_qubits: int, flip_probability: float) -> np.ndarray:
    """Full ``2**n x 2**n`` symmetric readout confusion matrix.

    Entry ``(observed, true)`` is the probability of reading ``observed``
    given the device was in ``true``; independent symmetric bit flips.
    """
    single = np.array(
        [
            [1.0 - flip_probability, flip_probability],
            [flip_probability, 1.0 - flip_probability],
        ]
    )
    matrix = np.array([[1.0]])
    for _ in range(num_qubits):
        matrix = np.kron(single, matrix)
    return matrix


def apply_readout_noise_to_probabilities(
    probabilities: np.ndarray, flip_probability: float
) -> np.ndarray:
    """Push basis-outcome probabilities through the readout channel.

    Implemented as ``n`` sequential single-bit mixing steps (O(n 2^n))
    instead of materialising the full confusion matrix (O(4^n)).
    """
    if flip_probability == 0.0:
        return probabilities
    probs = np.asarray(probabilities, dtype=float)
    num_qubits = int(round(math.log2(probs.shape[0])))
    tensor = probs.reshape([2] * num_qubits)
    for axis in range(num_qubits):
        kept = np.take(tensor, [0, 1], axis=axis)
        flipped = np.take(tensor, [1, 0], axis=axis)
        tensor = (1.0 - flip_probability) * kept + flip_probability * flipped
    return tensor.reshape(-1)
