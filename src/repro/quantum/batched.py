"""Batched exact statevector simulation.

:class:`BatchedStatevector` holds ``B`` pure states as one ``(B, 2**n)``
complex array and applies gates to all of them in a single vectorized
pass.  This is the execution-side twin of the batched reconstruction
engine in :mod:`repro.cs.engine`: where that module stacks landscapes
along a leading axis to run one FISTA loop, this one stacks parameter
points to run one simulation, turning the 5k-32k per-landscape circuit
executions of a dense grid search (Table 1) from a Python-level loop
into a handful of array operations.

Gate application mirrors :class:`~repro.quantum.statevector.Statevector`
exactly — reshape to a rank-``n`` tensor (behind the leading batch
axis), move the target qubit axes to the front, contract — so batched
results match the serial engine to machine precision.  Each operation
additionally accepts a *per-row* operand (a ``(B, 2, 2)`` matrix stack
or a ``(B, 2**n)`` diagonal stack), which is what lets one call apply a
different parameter binding to every row: a QAOA cost layer becomes one
broadcast ``exp(-1j * gamma[:, None] * cost_diagonal)`` multiply and a
mixer layer one einsum with a ``(B, 2, 2)`` RX stack.
"""

from __future__ import annotations

import math

import numpy as np

from ..utils import ensure_rng
from .statevector import Statevector

__all__ = ["BatchedStatevector", "default_batch_size"]

#: Hard cap on rows per batch regardless of state size: beyond this the
#: arrays are long past the vectorization break-even and a larger batch
#: only raises peak memory.
DEFAULT_MAX_BATCH = 512

#: Amplitude budget per batch (rows x 2**n complex entries).  2**15
#: entries is 512 KiB — sized for L2-cache residency, which measures
#: fastest by a wide margin: gate application makes several passes over
#: the stack, and once the stack spills out of cache those passes are
#: memory-bound while the serial engine's single 16-KiB state stays
#: cache-hot.
DEFAULT_ENTRY_BUDGET = 1 << 15

#: Number of low qubits of :meth:`BatchedStatevector.apply_hadamard_all`
#: handled by one BLAS matmul instead of butterfly passes.  The low
#: qubits are the strided, cache-hostile part of the butterfly (their
#: pair elements sit 1-8 entries apart); a single contiguous
#: ``(rows, 16) @ (16, 16)`` product replaces two full passes over the
#: stack and measures ~15-25% faster across register widths, which is
#: what tips the batched path past the serial engine at n >= 13.
_GEMM_QUBITS = 4

_HADAMARD_BLOCK: np.ndarray | None = None


def _hadamard_block() -> np.ndarray:
    """The unnormalized ``H^{(x)k}`` matrix for the low-qubit gemm."""
    global _HADAMARD_BLOCK
    if _HADAMARD_BLOCK is None:
        block = np.array([[1.0]])
        core = np.array([[1.0, 1.0], [1.0, -1.0]])
        for _ in range(_GEMM_QUBITS):
            block = np.kron(core, block)
        _HADAMARD_BLOCK = np.ascontiguousarray(block, dtype=complex)
    return _HADAMARD_BLOCK


def default_batch_size(
    num_qubits: int | None = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> int:
    """Cache-capped default batch size for ``num_qubits``-wide states.

    Args:
        num_qubits: width of the simulated register; ``None`` (unknown,
            e.g. a black-box cost function) returns ``max_batch``.
        max_batch: upper bound on rows per batch.
        entry_budget: maximum total complex amplitudes per batch.
    """
    if num_qubits is None:
        return max_batch
    return max(1, min(max_batch, entry_budget >> int(num_qubits)))


class BatchedStatevector:
    """``B`` pure states in one ``(B, 2**n)`` array with batched gates."""

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
            self._data = np.zeros((int(batch_size), dim), dtype=complex)
            self._data[:, 0] = 1.0
        else:
            data = np.asarray(data, dtype=complex)
            if data.ndim != 2 or data.shape[1] != dim:
                raise ValueError(
                    f"data must have shape (B, {dim}) for {num_qubits} qubits, "
                    f"got {data.shape}"
                )
            if batch_size is not None and data.shape[0] != batch_size:
                raise ValueError("batch_size does not match data rows")
            self._data = data.copy()

    @classmethod
    def uniform_superposition(
        cls, num_qubits: int, batch_size: int
    ) -> "BatchedStatevector":
        """``B`` copies of ``H^{(x)n}|0..0>`` (the QAOA initial state)."""
        dim = 1 << int(num_qubits)
        amplitude = 1.0 / math.sqrt(dim)
        return cls(
            num_qubits,
            data=np.full((int(batch_size), dim), amplitude, dtype=complex),
        )

    @property
    def data(self) -> np.ndarray:
        """The underlying ``(B, 2**n)`` amplitude array (a live view)."""
        return self._data

    @property
    def batch_size(self) -> int:
        """Number of stacked states ``B``."""
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**n``."""
        return self._data.shape[1]

    def copy(self) -> "BatchedStatevector":
        """An independent copy of the stacked states."""
        return BatchedStatevector(self.num_qubits, data=self._data)

    def row(self, index: int) -> Statevector:
        """The single-state view of row ``index`` (as a copy)."""
        return Statevector(self.num_qubits, self._data[index])

    # -- gate application ----------------------------------------------

    def apply_one_qubit(self, matrix: np.ndarray, qubit: int) -> None:
        """Apply a 2x2 unitary to ``qubit`` of every row in place.

        ``matrix`` is either one shared ``(2, 2)`` unitary or a
        ``(B, 2, 2)`` stack applying a different unitary per row (the
        per-row parameter-broadcasting path).
        """
        matrix = np.asarray(matrix, dtype=complex)
        n = self.num_qubits
        batch = self.batch_size
        if matrix.ndim == 2:
            m00, m01 = matrix[0, 0], matrix[0, 1]
            m10, m11 = matrix[1, 0], matrix[1, 1]
        elif matrix.ndim == 3 and matrix.shape == (batch, 2, 2):
            # Per-row scalars broadcast against the (B, L, R) sub-blocks.
            m00 = matrix[:, 0, 0, None, None]
            m01 = matrix[:, 0, 1, None, None]
            m10 = matrix[:, 1, 0, None, None]
            m11 = matrix[:, 1, 1, None, None]
        else:
            raise ValueError(
                f"matrix must be (2, 2) or ({batch}, 2, 2), got {matrix.shape}"
            )
        # Little-endian strided view: the target qubit's bit has stride
        # 2**qubit, so (B, 2**n) factors as (B, L, 2, R) with R = 2**qubit.
        tensor = self._data.reshape(batch, -1, 2, 1 << qubit)
        lower = tensor[:, :, 0, :]
        upper = tensor[:, :, 1, :]
        out = np.empty_like(tensor)
        np.multiply(m00, lower, out=out[:, :, 0, :])
        out[:, :, 0, :] += m01 * upper
        np.multiply(m10, lower, out=out[:, :, 1, :])
        out[:, :, 1, :] += m11 * upper
        self._data = out.reshape(batch, -1)

    def apply_two_qubit(
        self, matrix: np.ndarray, qubit0: int, qubit1: int
    ) -> None:
        """Apply a 4x4 unitary to ``(qubit0, qubit1)`` of every row.

        The matrix is interpreted in the ``|q1 q0>`` basis used by
        :mod:`repro.quantum.gates` (``qubit1`` is the high index bit),
        matching :meth:`Statevector.apply_two_qubit`.  ``matrix`` may be
        one shared ``(4, 4)`` unitary or a per-row ``(B, 4, 4)`` stack.
        """
        matrix = np.asarray(matrix, dtype=complex)
        n = self.num_qubits
        batch = self.batch_size
        tensor = self._data.reshape([batch] + [2] * n)
        axis1 = 1 + (n - 1 - qubit1)  # high bit
        axis0 = 1 + (n - 1 - qubit0)  # low bit
        tensor = np.moveaxis(tensor, (axis1, axis0), (1, 2))
        shape = tensor.shape
        flat = tensor.reshape(batch, 4, -1)
        if matrix.ndim == 2:
            flat = np.einsum("ij,bjk->bik", matrix, flat)
        elif matrix.ndim == 3 and matrix.shape == (batch, 4, 4):
            flat = np.einsum("bij,bjk->bik", matrix, flat)
        else:
            raise ValueError(
                f"matrix must be (4, 4) or ({batch}, 4, 4), got {matrix.shape}"
            )
        tensor = np.moveaxis(flat.reshape(shape), (1, 2), (axis1, axis0))
        self._data = np.ascontiguousarray(tensor).reshape(batch, -1)

    def apply_diagonal(self, diagonal: np.ndarray) -> None:
        """Multiply every row elementwise by a phase vector in place.

        ``diagonal`` is either one shared length-``2**n`` vector or a
        ``(B, 2**n)`` stack with one phase vector per row — the batched
        QAOA cost layer is ``exp(-1j * gamma[:, None] * cost_diagonal)``.
        """
        diagonal = np.asarray(diagonal)
        if diagonal.ndim == 1 and diagonal.shape[0] == self.dim:
            self._data *= diagonal[None, :]
        elif diagonal.shape == self._data.shape:
            self._data *= diagonal
        else:
            raise ValueError(
                f"diagonal must have shape ({self.dim},) or "
                f"{self._data.shape}, got {diagonal.shape}"
            )

    def apply_hadamard_all(self, scale: float | None = None) -> None:
        """Apply ``H`` to every qubit of every row in one shared pass.

        The transform is a fast Walsh-Hadamard butterfly (radix-4, so
        half the passes over the stack of a gate-by-gate loop) shared
        across all rows — the workhorse behind the batched QAOA mixer,
        which is ``H^n · diag(phases) · H^n``.  The lowest
        ``_GEMM_QUBITS`` qubits are transformed by one contiguous BLAS
        matmul instead (see :data:`_GEMM_QUBITS`), which removes the
        strided small-``R`` butterfly passes that used to make the
        batched path merely tie the serial engine at n >= 13.

        Args:
            scale: scalar folded into the transform in place of the
                standard ``2**(-n/2)`` Hadamard normalization.  Callers
                chaining two transforms pass ``scale=1.0`` here and fold
                the combined ``2**-n`` into an adjacent diagonal, saving
                full-stack multiplies.
        """
        n = self.num_qubits
        batch = self.batch_size
        data = self._data
        qubit = 0
        if n >= _GEMM_QUBITS:
            # The low qubits' butterfly pairs are 1-8 entries apart —
            # strided access SIMD handles poorly.  One contiguous BLAS
            # product transforms all of them in a single pass.
            flat = data.reshape(-1, 1 << _GEMM_QUBITS)
            data = (flat @ _hadamard_block()).reshape(batch, -1)
            self._data = data
            qubit = _GEMM_QUBITS
        while qubit + 1 < n:
            # Radix-4 butterfly over qubit pairs (qubit, qubit + 1).
            tensor = data.reshape(batch, -1, 4, 1 << qubit)
            a = tensor[:, :, 0, :]
            b = tensor[:, :, 1, :]
            c = tensor[:, :, 2, :]
            d = tensor[:, :, 3, :]
            s0 = a + b
            s1 = a - b
            s2 = c + d
            s3 = c - d
            tensor[:, :, 0, :] = s0 + s2
            tensor[:, :, 1, :] = s1 + s3
            tensor[:, :, 2, :] = s0 - s2
            tensor[:, :, 3, :] = s1 - s3
            qubit += 2
        if qubit < n:
            tensor = data.reshape(batch, -1, 2, 1 << qubit)
            a = tensor[:, :, 0, :].copy()
            b = tensor[:, :, 1, :]
            tensor[:, :, 0, :] = a + b
            tensor[:, :, 1, :] = a - b
        if scale is None:
            scale = 2.0 ** (-0.5 * n)
        if scale != 1.0:
            data *= scale

    # -- measurement ----------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Per-row basis-outcome probabilities, shape ``(B, 2**n)``."""
        return np.abs(self._data) ** 2

    def norms(self) -> np.ndarray:
        """Euclidean norm of every row's amplitude vector."""
        return np.linalg.norm(self._data, axis=1)

    def expectation_diagonal(self, diagonal_values: np.ndarray) -> np.ndarray:
        """``<psi_b| D |psi_b>`` per row for a real diagonal observable."""
        return np.real(self.probabilities() @ np.asarray(diagonal_values))

    def expectation_matrix(self, observable: np.ndarray) -> np.ndarray:
        """``<psi_b| O |psi_b>`` per row for a dense Hermitian observable.

        One BLAS product against the whole stack — the batched twin of
        :meth:`Statevector.expectation_matrix`, used by the VQE-style
        ansatzes whose molecular Hamiltonians are not diagonal.
        """
        observable = np.asarray(observable, dtype=complex)
        transformed = self._data @ observable.T
        return np.real(np.einsum("bi,bi->b", np.conj(self._data), transformed))

    def sample_expectation_diagonal(
        self,
        diagonal_values: np.ndarray,
        shots: int,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Per-row shot-noise estimates of a diagonal observable.

        Rows consume the shared ``rng`` in batch order, one draw per
        row, so a serial loop of
        :meth:`Statevector.sample_expectation_diagonal` over the same
        states with the same generator sees identical draws.
        """
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        rng = ensure_rng(rng)
        return np.array(
            [
                self.row(index).sample_expectation_diagonal(
                    diagonal_values, shots, rng
                )
                for index in range(self.batch_size)
            ]
        )
