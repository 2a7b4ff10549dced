"""A UCCSD-style chemistry ansatz.

The Unitary Coupled-Cluster Singles-and-Doubles ansatz applies
``exp(-i theta_k G_k / 2)`` for a set of anti-Hermitian excitation
generators ``G_k``.  After Jordan-Wigner/parity mapping, each generator
is a sum of Pauli strings; first-order Trotterisation turns each string
into a Pauli-rotation gate sequence.

We implement the standard compact form used for small molecules:

- **singles** on qubit pairs: excitation-preserving hopping generators
  ``(X_i X_j + Y_i Y_j)/2`` (Givens rotations), realised as an RXX +
  RYY pair;
- **doubles** on qubit quadruples (only emitted when the register is
  wide enough): the leading ``XXXY``-type strings, Trotterised with the
  textbook CX-ladder + RZ construction.

Parameter counts match the paper's Table 3 configuration: H2/UCCSD has
3 parameters (2 singles + 1 double on the 2-qubit reduced problem uses
a doubled singles layer), LiH/UCCSD has 8.  The exact excitation list
is configurable so tests can exercise arbitrary layouts.

Batched execution (:meth:`UccsdAnsatz.expectation_many`) replays the
same gate sequence on a
:class:`~repro.quantum.batched.BatchedStatevector`: singles become
per-row ``(B, 4, 4)`` RXX/RYY stacks, doubles keep their shared
basis-change/CX frame around one per-row RZ stack, so the Table 3
slice grids run vectorized instead of a circuit per point.  Noisy rows
run vectorized too: one circuit skeleton replayed on a
:class:`~repro.quantum.batched_density.BatchedDensityMatrix` against an
angle matrix (a single's RXX and RYY read the same parameter column),
with per-row noise models — see
:meth:`~repro.ansatz.base.Ansatz._density_many`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..problems.pauli import PauliSum
from ..quantum.batched import BatchedStatevector
from ..quantum.circuit import QuantumCircuit
from ..quantum.density import simulate_density
from ..quantum.gates import CX, H, S, SDG, rxx_many, ryy_many, rz_many
from ..quantum.noise import NoiseModel
from .base import Ansatz
from ..utils import ensure_rng

__all__ = ["UccsdAnsatz", "default_excitations"]


def default_excitations(num_qubits: int, num_parameters: int) -> list[tuple[int, ...]]:
    """A deterministic excitation list with ``num_parameters`` entries.

    Singles over adjacent pairs first (wrapping), then doubles over
    sliding windows of four qubits, cycling until the requested count is
    reached.  This reproduces the (2-qubit, 3-parameter) and
    (4-qubit, 8-parameter) shapes of the paper's Table 3.
    """
    if num_qubits < 2:
        raise ValueError("UCCSD needs at least two qubits")
    excitations: list[tuple[int, ...]] = []
    pair_count = num_qubits if num_qubits > 2 else 1
    cursor = 0
    while len(excitations) < num_parameters:
        if num_qubits >= 4 and cursor % 3 == 2:
            start = cursor % (num_qubits - 3)
            excitations.append(tuple(range(start, start + 4)))
        else:
            i = cursor % pair_count
            excitations.append((i, (i + 1) % num_qubits))
        cursor += 1
    return excitations


class UccsdAnsatz(Ansatz):
    """Trotterised UCCSD-style ansatz over configurable excitations."""

    #: Noisy rows run on the batched density engine (see
    #: :meth:`~repro.ansatz.base.Ansatz.batch_capacity`).
    noisy_engine = "density"

    def __init__(
        self,
        hamiltonian: PauliSum,
        num_parameters: int,
        excitations: Sequence[tuple[int, ...]] | None = None,
        initial_bitstring: str | None = None,
    ):
        self.hamiltonian = hamiltonian
        self.num_qubits = hamiltonian.num_qubits
        self.num_parameters = int(num_parameters)
        if excitations is None:
            excitations = default_excitations(self.num_qubits, self.num_parameters)
        if len(excitations) != self.num_parameters:
            raise ValueError("need exactly one excitation per parameter")
        for excitation in excitations:
            if len(excitation) not in (2, 4):
                raise ValueError("excitations must touch 2 (single) or 4 (double) qubits")
            if any(not 0 <= q < self.num_qubits for q in excitation):
                raise ValueError(f"excitation {excitation} out of range")
        self.excitations = [tuple(exc) for exc in excitations]
        # Hartree-Fock-like reference: fill the lower half of the register.
        if initial_bitstring is None:
            occupied = self.num_qubits // 2
            initial_bitstring = "0" * (self.num_qubits - occupied) + "1" * occupied
        if len(initial_bitstring) != self.num_qubits:
            raise ValueError("initial bitstring width mismatch")
        self.initial_bitstring = initial_bitstring
        self._matrix: np.ndarray | None = None

    def circuit(self, parameters: Sequence[float]) -> QuantumCircuit:
        """Reference-state preparation followed by excitation rotations."""
        values = self._validate(parameters)
        qc = QuantumCircuit(self.num_qubits, name="uccsd")
        for position, bit in enumerate(self.initial_bitstring):
            if bit == "1":
                qc.x(self.num_qubits - 1 - position)
        for theta, excitation in zip(values, self.excitations):
            if len(excitation) == 2:
                self._append_single(qc, float(theta), *excitation)
            else:
                self._append_double(qc, float(theta), excitation)
        return qc

    @staticmethod
    def _append_single(qc: QuantumCircuit, theta: float, i: int, j: int) -> None:
        """Hopping rotation ``exp(-i theta (X_i X_j + Y_i Y_j)/2)``.

        ``(XX + YY)/2`` is the excitation-preserving Givens generator:
        it rotates within the ``{|01>, |10>}`` subspace and leaves
        ``|00>``/``|11>`` untouched, which is exactly a fermionic single
        excitation after the Jordan-Wigner/parity mapping on adjacent
        qubits.
        """
        qc.rxx(theta, i, j)
        qc.ryy(theta, i, j)

    @staticmethod
    def _append_double(
        qc: QuantumCircuit, theta: float, qubits: tuple[int, ...]
    ) -> None:
        """Leading double-excitation string ``exp(-i theta X X X Y / 2)``.

        Textbook construction: basis rotation to Z, CX ladder, RZ, undo.
        """
        a, b, c, d = qubits
        for qubit in (a, b, c):
            qc.h(qubit)
        qc.sdg(d)
        qc.h(d)
        qc.cx(a, b)
        qc.cx(b, c)
        qc.cx(c, d)
        qc.rz(theta, d)
        qc.cx(c, d)
        qc.cx(b, c)
        qc.cx(a, b)
        qc.h(d)
        qc.s(d)
        for qubit in (c, b, a):
            qc.h(qubit)

    def _observable_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.hamiltonian.matrix()
        return self._matrix

    # -- batched fast path ----------------------------------------------------

    def statevector_many(
        self, parameters_batch: Sequence[Sequence[float]] | np.ndarray
    ) -> BatchedStatevector:
        """Exact output states for a parameter batch, one vectorized pass.

        Mirrors :meth:`circuit` gate for gate with a leading batch axis.
        The reference state is written directly (one basis column), each
        single excitation is an RXX + RYY pair of per-row ``(B, 4, 4)``
        stacks, and each double keeps its shared basis-change/CX frame
        with only the central RZ as a per-row ``(B, 2, 2)`` stack.
        """
        batch = self._validate_batch(parameters_batch)
        n = self.num_qubits
        state = BatchedStatevector(n, batch_size=batch.shape[0])
        reference = int(self.initial_bitstring, 2)
        if reference:
            data = state.data
            data[:, 0] = 0.0
            data[:, reference] = 1.0
        for column, excitation in enumerate(self.excitations):
            thetas = batch[:, column]
            if len(excitation) == 2:
                i, j = excitation
                state.apply_two_qubit(rxx_many(thetas), i, j)
                state.apply_two_qubit(ryy_many(thetas), i, j)
            else:
                a, b, c, d = excitation
                for qubit in (a, b, c):
                    state.apply_one_qubit(H, qubit)
                state.apply_one_qubit(SDG, d)
                state.apply_one_qubit(H, d)
                for control, target in ((a, b), (b, c), (c, d)):
                    state.apply_two_qubit(CX, qubit0=target, qubit1=control)
                state.apply_one_qubit(rz_many(thetas), d)
                for control, target in ((c, d), (b, c), (a, b)):
                    state.apply_two_qubit(CX, qubit0=target, qubit1=control)
                state.apply_one_qubit(H, d)
                state.apply_one_qubit(S, d)
                for qubit in (c, b, a):
                    state.apply_one_qubit(H, qubit)
        return state

    def expectation_many(
        self,
        parameters_batch: Sequence[Sequence[float]] | np.ndarray,
        noise: NoiseModel | Sequence[NoiseModel | None] | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`expectation` over a parameter batch.

        Ideal rows ride the native batched statevector path; noisy rows
        ride the batched density engine — one
        :class:`~repro.quantum.batched_density.BatchedDensityMatrix`
        replay per memory-capped chunk with per-row noise models,
        matching the serial loop's values to machine precision.  Shot
        noise is drawn one row at a time in batch order, so a serial
        loop over :meth:`expectation` with the same generator sees
        identical draws.
        """
        batch = self._validate_batch(parameters_batch)
        noise_rows = self._resolve_noise(noise, batch.shape[0])
        return self._expectation_many_split(
            batch,
            noise_rows,
            shots,
            rng,
            ideal_many=lambda rows: self.statevector_many(
                rows
            ).expectation_matrix(self._observable_matrix()),
            noisy_many=self._density_many,
        )

    def _density_columns(self) -> np.ndarray:
        """A single's RXX and RYY share its parameter's column; a
        double's RZ takes one (see :meth:`circuit`)."""
        return np.repeat(
            np.arange(self.num_parameters),
            [2 if len(excitation) == 2 else 1 for excitation in self.excitations],
        )

    def _density_expectations(self, rho, models) -> np.ndarray:
        """Per-row ``Tr(rho H)`` of a noisy density stack.

        The molecular Hamiltonians are dense matrices, so readout error
        plays no role here — exactly like the serial noisy path.
        """
        del models
        return rho.expectation_matrix(self._observable_matrix())

    def _shot_scale(self) -> float:
        """Crude per-shot standard-deviation bound: sum of |coeffs|."""
        return float(sum(abs(term.coefficient) for term in self.hamiltonian))

    def expectation(
        self,
        parameters: Sequence[float],
        noise: NoiseModel | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """``<H>`` for the bound circuit (density matrix when noisy)."""
        values = self._validate(parameters)
        if noise is not None and not noise.is_ideal:
            rho = simulate_density(self.circuit(values), noise)
            value = rho.expectation_matrix(self._observable_matrix())
        else:
            state = self.statevector(values)
            value = self.hamiltonian.expectation(state)
        if shots is None:
            return value
        rng = ensure_rng(rng)
        return value + rng.normal(0.0, self._shot_scale() / np.sqrt(shots))

    def cache_spec(self) -> dict:
        """Canonical content description for the landscape store."""
        from .twolocal import _pauli_sum_spec

        return {
            "type": "uccsd",
            "num_qubits": self.num_qubits,
            "num_parameters": self.num_parameters,
            "excitations": [list(exc) for exc in self.excitations],
            "initial_bitstring": self.initial_bitstring,
            "hamiltonian": _pauli_sum_spec(self.hamiltonian),
        }

    def parameter_names(self) -> list[str]:
        return [
            f"t{'s' if len(exc) == 2 else 'd'}_{index}"
            for index, exc in enumerate(self.excitations)
        ]
