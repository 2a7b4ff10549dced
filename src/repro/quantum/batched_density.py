"""Batched exact density-matrix simulation with depolarizing noise.

:class:`BatchedDensityMatrix` holds ``B`` density operators as one
``(B, 2**n, 2**n)`` complex stack and replays ``B`` structurally
identical circuits on it in a single vectorized pass
(:meth:`BatchedDensityMatrix.evolve_circuits`) — the noisy twin of
:class:`~repro.quantum.batched.BatchedStatevector`.  It serves the
noisy rows of the Two-local and UCCSD ansatzes, batched ZNE (scale
factors folded into the batch axis as per-row noise models) and CDR
training, which would otherwise each pay a Python-level
``simulate_density`` loop per row.

Operator application mirrors the batched statevector engine — reshape
to a rank-``2n`` tensor behind the leading batch axis, move the target
qubit axes to the front, contract — so no operator is ever embedded
into the full ``2**n x 2**n`` space.  A density matrix has two index
groups (rows and columns); gathering a gate's row *and* column axes
together exposes the row-major vectorised ``(d**2,)`` local block, on
which a conjugation ``U rho U^dag`` is one matmul with the
``(d**2, d**2)`` superoperator ``U (x) conj(U)`` and a whole Kraus
channel is one matmul with ``sum_k E_k (x) conj(E_k)``.  Circuit
replay composes each gate's superoperator with its noise channel's, so
a (gate, channel) pair costs a single contraction pass.  A parameterless
gate is one shared operator; a parameterized position becomes a
per-row ``(B, d, d)`` stack, and rows that disagree on the depolarizing
probability get a per-row channel.

The serial :class:`~repro.quantum.density.DensityMatrix` delegates to
the same kernels (:func:`conjugate_stack` / :func:`apply_kraus_stack`
with ``B = 1``), so the reference oracle and the batched engine share
one contraction implementation.

Memory: each row holds ``4**n`` complex entries — the square of a
statevector row — so :func:`default_density_batch_size` shrinks the
cache-capped default batch accordingly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .batched import DEFAULT_MAX_BATCH
from .circuit import QuantumCircuit
from .gates import gate_matrix_many
from .noise import NoiseModel, kraus_superop

__all__ = [
    "BatchedDensityMatrix",
    "apply_kraus_stack",
    "conjugate_stack",
    "default_density_batch_size",
    "kraus_superop_from_stack",
    "unitary_superop",
]

#: Complex-entry budget per density batch (rows x 4**n entries).  2**17
#: entries is 2 MiB of complex128 — the density analogue of the batched
#: statevector's L2-residency budget, scaled up because a density chunk
#: makes fewer passes per entry (one conjugation touches each entry
#: twice) and the serial alternative re-enters Python per row.
DENSITY_ENTRY_BUDGET = 1 << 17


def default_density_batch_size(num_qubits: int | None = None) -> int:
    """Cache-capped default batch size for ``num_qubits``-wide densities.

    Each row costs ``4**n`` complex entries (vs ``2**n`` for a
    statevector row), so for the same budget the density default is the
    statevector default squared-down: :data:`DENSITY_ENTRY_BUDGET`
    ``>> 2n`` rows, capped at ``DEFAULT_MAX_BATCH`` — which is also what
    ``num_qubits=None`` (unknown) returns.
    """
    if num_qubits is None:
        return DEFAULT_MAX_BATCH
    rows = DENSITY_ENTRY_BUDGET >> (2 * int(num_qubits))
    return max(1, min(DEFAULT_MAX_BATCH, rows))


def _gather(
    data: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> tuple[np.ndarray, tuple]:
    """Pull the row- and column-local axes of ``qubits`` to the front.

    ``data`` is a ``(B, 2**n, 2**n)`` stack.  Returns a contiguous
    ``(B, d, d, rest)`` view with ``d = 2**len(qubits)`` — axis 1 the
    combined *row* index of the targeted qubits, axis 2 the combined
    *column* index, ``rest`` all remaining indices — plus the scatter
    recipe to undo the move.  The qubit order follows the ``|q1 q0>``
    basis of :mod:`repro.quantum.gates` for pairs (``qubits[1]`` is the
    high bit).
    """
    n = int(num_qubits)
    batch = data.shape[0]
    arity = len(qubits)
    if arity == 1:
        (qubit,) = qubits
        local = (n - 1 - qubit,)
    elif arity == 2:
        qubit0, qubit1 = qubits  # q1 is the high bit of the matrix basis
        local = (n - 1 - qubit1, n - 1 - qubit0)
    else:
        raise ValueError(f"unsupported operator arity {arity}")
    source = tuple(1 + axis for axis in local) + tuple(
        1 + n + axis for axis in local
    )
    destination = tuple(range(1, 1 + 2 * arity))
    tensor = np.moveaxis(
        data.reshape([batch] + [2] * n + [2] * n), source, destination
    )
    shape = tensor.shape
    flat = tensor.reshape(batch, 1 << arity, 1 << arity, -1)
    return flat, (shape, source, destination, batch, n)


def _scatter(flat: np.ndarray, recipe: tuple) -> np.ndarray:
    """Undo :func:`_gather`: back to a contiguous ``(B, 2**n, 2**n)``."""
    shape, source, destination, batch, n = recipe
    tensor = np.moveaxis(flat.reshape(shape), destination, source)
    return np.ascontiguousarray(tensor).reshape(batch, 1 << n, 1 << n)


def _apply_superop(
    data: np.ndarray,
    superop: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """One matmul with a local superoperator on every row of a stack.

    ``superop`` is a shared ``(d**2, d**2)`` matrix or a per-row
    ``(B, d**2, d**2)`` stack acting on the row-major vectorisation of
    the targeted qubits' ``(d, d)`` block — the combined (row, column)
    index the gather produces at axes 1-2.  One gather, one broadcast
    matmul (BLAS for shared and per-row operands alike), one scatter.
    """
    flat, recipe = _gather(data, qubits, num_qubits)
    batch, d = flat.shape[0], flat.shape[1]
    out = np.matmul(superop, flat.reshape(batch, d * d, -1))
    return _scatter(out.reshape(flat.shape), recipe)


def unitary_superop(matrix: np.ndarray) -> np.ndarray:
    """``M (x) conj(M)``: the conjugation ``rho -> M rho M^dag`` as a
    superoperator on the row-major vectorised local block.

    Shared ``(d, d)`` input gives ``(d**2, d**2)``; a per-row
    ``(B, d, d)`` stack gives ``(B, d**2, d**2)``.
    """
    if matrix.ndim == 2:
        return np.kron(matrix, np.conj(matrix))
    batch, dim = matrix.shape[0], matrix.shape[-1]
    return np.einsum("bim,bjl->bijml", matrix, np.conj(matrix)).reshape(
        batch, dim * dim, dim * dim
    )


def kraus_superop_from_stack(stack: np.ndarray) -> np.ndarray:
    """``sum_k E_k (x) conj(E_k)`` for a shared ``(K, d, d)`` or per-row
    ``(B, K, d, d)`` Kraus stack (channel analogue of
    :func:`unitary_superop`)."""
    dim = stack.shape[-1]
    if stack.ndim == 3:
        return np.einsum("kim,kjl->ijml", stack, np.conj(stack)).reshape(
            dim * dim, dim * dim
        )
    return np.einsum("bkim,bkjl->bijml", stack, np.conj(stack)).reshape(
        stack.shape[0], dim * dim, dim * dim
    )


def conjugate_stack(
    data: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """``M rho M^dag`` on ``qubits`` of every row of a density stack.

    The shared conjugation kernel: ``data`` is ``(B, 2**n, 2**n)``,
    ``matrix`` is shared ``(d, d)`` or per-row ``(B, d, d)``.  Returns a
    new contiguous stack (out of place).
    """
    return _apply_superop(data, unitary_superop(matrix), qubits, num_qubits)


def apply_kraus_stack(
    data: np.ndarray,
    stack: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """``sum_k E_k rho E_k^dag`` on ``qubits`` of every row.

    ``stack`` is a shared ``(K, d, d)`` Kraus stack or a per-row
    ``(B, K, d, d)`` stack (one channel instance per row — the per-row
    noise-model shape).  Returns a new stack (out of place).  The whole
    channel is a single superoperator matmul, not one pass per Kraus
    operator.
    """
    return _apply_superop(
        data, kraus_superop_from_stack(stack), qubits, num_qubits
    )


def _resolve_models(
    noise: NoiseModel | Sequence[NoiseModel | None] | None, batch_size: int
) -> list[NoiseModel | None]:
    """Normalize a shared-or-per-row noise spec to one model per row."""
    if noise is None or isinstance(noise, NoiseModel):
        return [noise] * batch_size
    models = list(noise)
    if len(models) != batch_size:
        raise ValueError(
            f"per-row noise needs {batch_size} entries, got {len(models)}"
        )
    return models


class BatchedDensityMatrix:
    """``B`` density operators in one ``(B, 2**n, 2**n)`` stack."""

    def __init__(
        self,
        num_qubits: int,
        batch_size: int | None = None,
        data: np.ndarray | None = None,
    ):
        self.num_qubits = int(num_qubits)
        dim = 1 << self.num_qubits
        if data is None:
            if batch_size is None:
                raise ValueError("provide either batch_size or data")
            self._data = np.zeros((int(batch_size), dim, dim), dtype=complex)
            self._data[:, 0, 0] = 1.0
        else:
            data = np.asarray(data, dtype=complex)
            if data.ndim != 3 or data.shape[1:] != (dim, dim):
                raise ValueError(
                    f"data must have shape (B, {dim}, {dim}) for "
                    f"{num_qubits} qubits, got {data.shape}"
                )
            if batch_size is not None and data.shape[0] != batch_size:
                raise ValueError("batch_size does not match data rows")
            self._data = data.copy()

    @classmethod
    def from_statevectors(cls, amplitudes: np.ndarray) -> "BatchedDensityMatrix":
        """Pure-state stack ``|psi_b><psi_b|`` from ``(B, 2**n)`` rows."""
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 2:
            raise ValueError(
                f"amplitudes must be a (B, 2**n) stack, got {amplitudes.shape}"
            )
        num_qubits = int(np.log2(amplitudes.shape[1]))
        data = np.einsum("bi,bj->bij", amplitudes, amplitudes.conj())
        return cls(num_qubits, data=data)

    @property
    def data(self) -> np.ndarray:
        """The underlying ``(B, 2**n, 2**n)`` stack (a live view)."""
        return self._data

    @property
    def batch_size(self) -> int:
        """Number of stacked density operators ``B``."""
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**n``."""
        return self._data.shape[1]

    def traces(self) -> np.ndarray:
        """Per-row real trace (stays 1 for valid evolution)."""
        return np.real(np.einsum("bii->b", self._data))

    def purities(self) -> np.ndarray:
        """Per-row ``Tr(rho^2)``; 1 for pure, ``2**-n`` for maximally mixed."""
        return np.real(np.einsum("bij,bji->b", self._data, self._data))

    # -- circuit replay ---------------------------------------------------

    def evolve_circuits(
        self,
        circuits: Iterable[QuantumCircuit],
        noise: NoiseModel | Sequence[NoiseModel | None] | None = None,
    ) -> "BatchedDensityMatrix":
        """Replay ``B`` structurally identical circuits, one per row.

        The circuits must share their gate skeleton — same names and
        operands at every position — and may differ only in their
        angles: parameterless gates apply as one shared
        operator, parameterized positions stack into per-row operands.
        After each gate, rows whose noise model attaches a depolarizing
        probability get the corresponding Kraus channel.  Each gate's
        conjugation superoperator is composed with its channel's cached
        superoperator (:func:`repro.quantum.noise.kraus_superop`) so a
        (gate, channel) pair costs one contraction pass; when rows
        disagree on the probability the composition is per-row.
        Matches :meth:`repro.quantum.density.DensityMatrix.evolve` row
        for row.
        """
        circuits = list(circuits)
        if len(circuits) != self.batch_size:
            raise ValueError(
                f"need {self.batch_size} circuits (one per row), "
                f"got {len(circuits)}"
            )
        models = _resolve_models(noise, self.batch_size)
        instruction_rows = [circuit.instructions for circuit in circuits]
        skeleton = [
            (instruction.name, instruction.qubits)
            for instruction in instruction_rows[0]
        ]
        parameterized = [
            bool(instruction.params) for instruction in instruction_rows[0]
        ]
        for instructions in instruction_rows[1:]:
            structure = [
                (instruction.name, instruction.qubits)
                for instruction in instructions
            ]
            if structure != skeleton:
                raise ValueError(
                    "evolve_circuits needs structurally identical circuits "
                    "(same gate names and operands at every position)"
                )
        # Parameterless positions resolve once (shared operator);
        # parameterized positions resolve for the whole batch via the
        # vectorized gate constructors — never one matrix per row in
        # Python.
        reference = list(circuits[0].resolved_operations())
        gate_probabilities = {
            arity: np.array(
                [
                    0.0 if model is None else model.error_probability(arity)
                    for model in models
                ]
            )
            for arity in (1, 2)
        }
        for position, (name, qubits) in enumerate(skeleton):
            if parameterized[position]:
                matrix = gate_matrix_many(
                    name,
                    [
                        instructions[position].params[0]
                        for instructions in instruction_rows
                    ],
                )
            else:
                matrix = np.asarray(reference[position][2], dtype=complex)
            if name == "cx":
                operands = (qubits[1], qubits[0])  # control is the high bit
            else:
                operands = tuple(qubits)
            superop = unitary_superop(matrix)
            probabilities = gate_probabilities[len(qubits)]
            if probabilities.any():
                kind = (
                    "depolarizing"
                    if len(qubits) == 1
                    else "two_qubit_depolarizing"
                )
                if np.all(probabilities == probabilities[0]):
                    channel = kraus_superop(kind, float(probabilities[0]))
                else:
                    channel = np.stack(
                        [kraus_superop(kind, float(p)) for p in probabilities]
                    )
                superop = np.matmul(channel, superop)
            self._data = _apply_superop(
                self._data, superop, operands, self.num_qubits
            )
        return self

    # -- measurement -----------------------------------------------------

    def probabilities(
        self, readout_error: float | np.ndarray = 0.0
    ) -> np.ndarray:
        """Per-row diagonal outcome probabilities, shape ``(B, 2**n)``.

        ``readout_error`` is a shared scalar or a per-row ``(B,)``
        array of symmetric flip probabilities; each row matches
        :meth:`repro.quantum.density.DensityMatrix.probabilities` with
        that row's value.
        """
        probs = np.real(np.einsum("bii->bi", self._data)).copy()
        np.clip(probs, 0.0, None, out=probs)
        totals = probs.sum(axis=1, keepdims=True)
        np.divide(probs, totals, out=probs, where=totals > 0)
        flip = np.asarray(readout_error, dtype=float)
        if np.any(flip > 0.0):
            probs = self._apply_readout(probs, flip)
        return probs

    def _apply_readout(self, probs: np.ndarray, flip: np.ndarray) -> np.ndarray:
        """Per-axis symmetric bit-flip mixing with per-row probabilities.

        The batched twin of
        :func:`repro.quantum.noise.apply_readout_noise_to_probabilities`:
        ``n`` sequential single-bit mixing passes (O(B n 2^n)) with the
        flip probability broadcast as ``(B, 1, ..., 1)``.
        """
        n = self.num_qubits
        batch = probs.shape[0]
        flip = np.broadcast_to(flip, (batch,)).reshape([batch] + [1] * n)
        keep = 1.0 - flip
        tensor = probs.reshape([batch] + [2] * n)
        for axis in range(1, n + 1):
            kept = np.take(tensor, [0, 1], axis=axis)
            flipped = np.take(tensor, [1, 0], axis=axis)
            tensor = keep * kept + flip * flipped
        return tensor.reshape(batch, -1)

    def expectation_diagonal(
        self,
        diagonal_values: np.ndarray,
        readout_error: float | np.ndarray = 0.0,
    ) -> np.ndarray:
        """Per-row expectation of a diagonal observable, shape ``(B,)``."""
        return self.probabilities(readout_error) @ np.asarray(
            diagonal_values, dtype=float
        )

    def expectation_matrix(self, observable: np.ndarray) -> np.ndarray:
        """Per-row ``Tr(rho_b O)`` for a dense Hermitian observable.

        One ``O(B 4**n)`` elementwise contraction — no matrix product.
        """
        observable = np.asarray(observable)
        return np.real(np.einsum("bij,ji->b", self._data, observable))
