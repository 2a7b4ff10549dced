"""Batched exact density-matrix simulation with depolarizing noise.

:class:`BatchedDensityMatrix` holds ``B`` density operators as one
``(B, 2**n, 2**n)`` complex stack and replays **one circuit skeleton**
on it against a ``(B, K)`` angle matrix in a single vectorized pass
(:meth:`BatchedDensityMatrix.evolve_circuits`) — the noisy twin of
:class:`~repro.quantum.batched.BatchedStatevector`.  Column ``k`` of the
matrix feeds the skeleton's ``k``-th parameterized instruction, so a
batch of bindings costs one circuit, not one per row.  It serves the
noisy rows of the Two-local and UCCSD ansatzes, batched ZNE (scale
factors folded into the batch axis as per-row noise models) and CDR
training, which would otherwise each pay a Python-level
``simulate_density`` loop per row.

A density matrix has two index groups (rows and columns).  Viewing the
stack as a rank-``2n`` tensor behind the batch axis and bringing a
gate's row *and* column axes to the front exposes the row-major
vectorised ``(d**2,)`` local block, on which a conjugation
``U rho U^dag`` is one matmul with the ``(d**2, d**2)`` superoperator
``U (x) conj(U)`` and a whole Kraus channel is one matmul with
``sum_k E_k (x) conj(E_k)`` — no operator is ever embedded into the
full ``2**n x 2**n`` space.  Replay composes each gate's superoperator
with its noise channel's, so a (gate, channel) pair costs one
contraction.  A parameterless gate is one shared operator; a
parameterized one is a per-slot ``(S, d, d)`` stack built from its
angle column.  Each channel is built once per distinct depolarizing
probability in the batch and indexed per slot.

**Slots: rows share their circuit prefix.**  The replay evolves one
state per slot, a group of rows that started equal, carry the same
depolarizing rates and have been fed bit-equal angles so far.  A stack
the engine built itself (every row ``|0...0>``) starts with one slot per
distinct ``(p1, p2)`` rate pair; at each parameterized gate a slot
splits only where the gate's angle column differs inside it, keyed by
the angles' bits, so sharing is exact and never a tolerance.  After the
last gate one gather expands the slots back to the ``(B, 2**n, 2**n)``
stack.  Each slot runs the very matmuls its rows would have run, so
every value is bit-identical to a replay of that row alone; the per-row
replay is the case where every row is its own slot.  Sharing pays when
the leading parameters are frozen or on a slow grid axis: in a Tables
2-3 slice 8 of a 5-qubit Two-local's 10 angles are frozen, so a ZNE
chunk (42 points x 3 scale factors) runs every gate before the first
varying one on 3 states instead of 126.  A CDR-mitigated slice (one
shared noise model) shares its frozen prefix the same way.  Rows drawn
uniformly at random split at the first gate and cost what they did
before.

Slots are carried in a **tracked axis order** between gates: each
contraction moves its target axes to the front (one copy, none when they
already lead), runs one matmul and records the order its output is in;
a single transpose after the last gate restores the natural order
before the expansion.  Slots live in the leading rows of two work
buffers allocated once per replay at ``B`` rows; copies, matmuls and
splits alternate between them, so no gate allocates a stack.

The serial :class:`~repro.quantum.density.DensityMatrix` reaches the
same contraction step through :func:`conjugate_stack` /
:func:`apply_kraus_stack` (``B = 1``, transposed back after each
operator), so the reference oracle and the batched engine share one
implementation.

Memory: each row holds ``4**n`` complex entries — the square of a
statevector row — so :func:`default_density_batch_size` shrinks the
cache-capped default batch accordingly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .batched import DEFAULT_MAX_BATCH
from .circuit import QuantumCircuit
from .gates import gate_matrix, gate_matrix_many
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


def _local_axes(qubits: Sequence[int], num_qubits: int) -> tuple[int, ...]:
    """The rank-``2n`` tensor axes of ``qubits``: row axes, then column axes.

    Axis ``n - 1 - q`` is qubit ``q``'s row index and ``2n - 1 - q`` its
    column index.  The qubit order follows the ``|q1 q0>`` basis of
    :mod:`repro.quantum.gates` for pairs (``qubits[1]`` is the high bit).
    """
    n = int(num_qubits)
    if len(qubits) == 1:
        (qubit,) = qubits
        local = (n - 1 - qubit,)
    elif len(qubits) == 2:
        qubit0, qubit1 = qubits  # q1 is the high bit of the matrix basis
        local = (n - 1 - qubit1, n - 1 - qubit0)
    else:
        raise ValueError(f"unsupported operator arity {len(qubits)}")
    return local + tuple(n + axis for axis in local)


def _contract(
    state: np.ndarray,
    spare: np.ndarray,
    order: tuple[int, ...],
    superop: np.ndarray,
    axes: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """One superoperator matmul on a stack held in a tracked axis order.

    ``state`` and ``spare`` are two contiguous ``(B, 2, ..., 2)``
    buffers the step may overwrite; axis ``1 + j`` of ``state`` holds
    tensor axis ``order[j]``, and ``axes`` are the targets from
    :func:`_local_axes`.  The targets are copied to the front in the
    other buffer — skipped when they already lead — which exposes the
    row-major vectorised local block, and ``superop`` (shared
    ``(d**2, d**2)`` or per-row ``(B, d**2, d**2)``) contracts it in
    one broadcast matmul (BLAS for both) written into the buffer the
    block was not read from.  A gate therefore allocates no stack:
    returns ``(result, free, order)`` — the buffer holding the result,
    the buffer free for the next step, and the result's order (the
    targets, then the other axes as they were).
    """
    front = tuple(range(1, 1 + len(axes)))
    source = tuple(1 + order.index(axis) for axis in axes)
    if source != front:
        np.copyto(spare, np.moveaxis(state, source, front))
        state, spare = spare, state
    block = (state.shape[0], 1 << len(axes), -1)
    np.matmul(superop, state.reshape(block), out=spare.reshape(block))
    return spare, state, axes + tuple(axis for axis in order if axis not in axes)


def _restore(
    state: np.ndarray, spare: np.ndarray, order: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Transpose a tracked-order stack back to the natural axis order.

    Copies into ``spare``, or nothing when the order is already the
    natural one; returns ``(result, free)`` like :func:`_contract`.
    """
    natural = tuple(range(len(order)))
    if order != natural:
        permutation = (0,) + tuple(1 + order.index(axis) for axis in natural)
        np.copyto(spare, state.transpose(permutation))
        return spare, state
    return state, spare


def _split(
    state: np.ndarray,
    spare: np.ndarray,
    slot_of: np.ndarray,
    first: np.ndarray,
    columns: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a replay's slots where per-row ``columns`` differ inside one.

    Row ``b`` of the batch is in slot ``slot_of[b]``, slot ``s`` holds
    its state in row ``s`` of ``state`` and ``first[s]`` is its first
    row.  Rows stay in one slot only while each of ``columns`` is
    bit-equal across them: the floats are keyed by their bits as
    integers, so equality is exact (``-0.0`` is not ``0.0``) and the
    keys go through a 1-D ``np.unique``.  New slots are numbered in the
    order of their first row, so when every row has its own slot, slot
    ``b`` is row ``b``.  Each is gathered from its parent slot into the
    leading rows of ``spare``.  Returns ``(state, spare, slot_of,
    first)``: the same objects when no slot splits.
    """
    if first.size == slot_of.size:
        return state, spare, slot_of, first
    keys = slot_of
    for column in columns:
        bits = column.view(np.int64)
        if (bits != bits[:1]).any():
            values, ids = np.unique(bits, return_inverse=True)
            keys = keys * values.size + ids
    if keys is slot_of:
        return state, spare, slot_of, first
    _, rows, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if rows.size == first.size:
        return state, spare, slot_of, first
    by_row = np.argsort(rows)
    number = np.empty_like(by_row)
    number[by_row] = np.arange(by_row.size)
    rows = rows[by_row]
    # The slot indices are valid by construction; the default
    # mode="raise" would buffer ``out`` and copy it again.
    np.take(
        state[: first.size],
        slot_of[rows],
        axis=0,
        out=spare[: rows.size],
        mode="clip",
    )
    return spare, state, number[inverse], rows


def _apply_superop(
    data: np.ndarray,
    superop: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """One local superoperator on every row of a ``(B, 2**n, 2**n)`` stack.

    The serial engine's entry to the shared contraction step: one
    :func:`_contract` from the natural axis order on a copy of ``data``,
    transposed straight back.  Returns a new contiguous stack (out of
    place).
    """
    n = int(num_qubits)
    state = data.reshape((data.shape[0],) + (2,) * (2 * n)).copy()
    result, _ = _restore(
        *_contract(
            state,
            np.empty_like(state),
            tuple(range(2 * n)),
            superop,
            _local_axes(qubits, n),
        )
    )
    return result.reshape(data.shape)


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


def _row_channel(probabilities: np.ndarray, arity: int) -> np.ndarray | None:
    """The depolarizing channel after every ``arity``-qubit gate, given
    the probability of each row it acts on (each slot, in a replay).

    ``None`` when no row is noisy, one shared ``(d**2, d**2)``
    superoperator when every row has the same probability, else a
    per-row ``(B, d**2, d**2)`` stack: one cached
    :func:`~repro.quantum.noise.kraus_superop` per distinct probability
    (ZNE folds a few scale factors into many rows), indexed per row.
    """
    if not probabilities.any():
        return None
    kind = "depolarizing" if arity == 1 else "two_qubit_depolarizing"
    rates, rows = np.unique(probabilities, return_inverse=True)
    superops = [kraus_superop(kind, float(rate)) for rate in rates]
    if len(superops) == 1:
        return superops[0]
    return np.stack(superops)[rows]


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
        # Whether every row still holds the |0...0> state written here,
        # which lets a replay start its rows in shared slots.
        self._ground = data is None
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
        self._ground = False  # the caller may write to it
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
        circuit: QuantumCircuit,
        angles: np.ndarray,
        noise: NoiseModel | Sequence[NoiseModel | None] | None = None,
    ) -> "BatchedDensityMatrix":
        """Replay one circuit skeleton with a row of angles per batch row.

        ``circuit`` fixes the gate names and operands; its own angles
        are ignored.  ``angles`` is a ``(B, K)`` float array whose
        column ``k`` feeds the ``k``-th parameterized instruction, so
        row ``b`` replays the skeleton bound to ``angles[b]``.
        Parameterless gates apply as one shared operator,
        parameterized ones as a per-slot stack built from their column
        (:func:`~repro.quantum.gates.gate_matrix_many`).  After each
        gate, rows whose noise model attaches a depolarizing
        probability get that Kraus channel, composed with the gate's
        superoperator so the pair costs one contraction.  The channel
        superoperators (:func:`repro.quantum.noise.kraus_superop`) are
        built once per distinct probability and indexed per slot.

        **Slots.**  The replay evolves one state per slot: rows that
        started equal, carry the same ``(p1, p2)`` rates and have been
        fed bit-equal angles so far.  A stack this engine built
        (``batch_size=``, every row ``|0...0>``, not yet evolved or
        handed out through :attr:`data`) starts with one slot per
        distinct rate pair; any other stack (``data=``,
        :meth:`from_statevectors`) starts with one slot per row, and its
        values are not inspected.  At a parameterized gate a slot splits
        only where that gate's angle column differs inside it
        (:func:`_split`); the channels are rebuilt only when a split
        changes the slots.  Readout is not part of the key: it applies
        per row at measurement.  Each slot runs the matmuls its rows
        would run alone, so row ``b`` is bit-identical to a one-row
        replay of row ``b``.  Sharing pays when the leading parameters
        are frozen or on a slow grid axis: a Tables 2-3 slice, plain,
        CDR-mitigated or ZNE-folded (the scale factors are then the
        only other split).

        The slots live in the leading rows of two work buffers
        allocated once per call at ``B`` rows; a split gathers into the
        other one.  Between gates the slots stay in the tracked axis
        order of :func:`_contract`; after the last gate they are
        transposed back once, and one gather into the free buffer
        expands them to the ``(B, 2**n, 2**n)`` stack.  Row ``b``
        matches :meth:`repro.quantum.density.DensityMatrix.evolve` on
        the skeleton bound to ``angles[b]``.

        Raises:
            ValueError: if ``angles`` is not 2-D, does not have one row
                per batch row, or does not have one column per
                parameterized instruction of ``circuit``.
        """
        instructions = circuit.instructions
        batch = self.batch_size
        width = sum(1 for instruction in instructions if instruction.params)
        angles = np.asarray(angles, dtype=float)
        if angles.shape != (batch, width):
            raise ValueError(
                f"angles must have shape ({batch}, {width}): one "
                "row per batch row, one column per parameterized "
                f"instruction; got {angles.shape}"
            )
        rates = np.array(
            [
                (0.0, 0.0) if model is None else (model.p1, model.p2)
                for model in _resolve_models(noise, batch)
            ],
            dtype=float,
        ).reshape(batch, 2)
        n = self.num_qubits
        # Two work buffers for the whole replay.  A fresh stack per gate
        # is handed back to the OS and faulted in again, which cost as
        # much as the contractions themselves.  ``self._data`` is only
        # read, so the stack it held is left as it was.
        state = np.empty((batch,) + (2,) * (2 * n), dtype=complex)
        spare = np.empty_like(state)
        # Row b is in slot slot_of[b]; slot s holds its state in row s
        # of ``state`` and first[s] is its first row.
        if self._ground:
            slot_of = np.zeros(batch, dtype=np.intp)
            first = np.zeros(1, dtype=np.intp)
        else:
            slot_of = first = np.arange(batch)
        head = state[: first.size]
        head[...] = self._data[: first.size].reshape(head.shape)
        state, spare, slot_of, first = _split(
            state, spare, slot_of, first, rates.T
        )
        order = tuple(range(2 * n))
        column = 0
        built = None
        for instruction in instructions:
            name, qubits = instruction.name, instruction.qubits
            if instruction.params:
                state, spare, slot_of, first = _split(
                    state, spare, slot_of, first, (angles[:, column],)
                )
                matrix = gate_matrix_many(name, angles[first, column])
                column += 1
            else:
                matrix = gate_matrix(name)
            if name == "cx":
                qubits = (qubits[1], qubits[0])  # control is the high bit
            arity = len(qubits)
            if built is not first:  # a split changed the slots
                built, channels = first, {}
            if arity not in channels:
                channels[arity] = _row_channel(rates[first, arity - 1], arity)
            superop = unitary_superop(matrix)
            channel = channels[arity]
            if channel is not None:
                superop = np.matmul(channel, superop)
            head, tail = state[: first.size], spare[: first.size]
            result, _, order = _contract(
                head, tail, order, superop, _local_axes(qubits, n)
            )
            if result is tail:
                state, spare = spare, state
        head, tail = state[: first.size], spare[: first.size]
        result, _ = _restore(head, tail, order)
        if result is tail:
            state, spare = spare, state
        if first.size < batch:
            np.take(state[: first.size], slot_of, axis=0, out=spare, mode="clip")
            state = spare
        self._data = state.reshape(self._data.shape)
        self._ground = False
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
