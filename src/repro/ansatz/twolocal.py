"""Hardware-efficient "Two-local" ansatz.

The Two-local ansatz (the Qiskit ``TwoLocal`` default the paper uses)
alternates a layer of single-qubit RY rotations with a linear-chain CZ
entangler, finishing with one more rotation layer:

    [RY(theta) on all qubits]  ->  [CZ chain]  -> ... -> [RY(theta)]

With ``reps`` entangling blocks, the parameter count is
``num_qubits * (reps + 1)``.  The paper sizes depth so the ansatz has 8
parameters at n=4 (reps=1) and 6 parameters at n=6 (reps=0); both
configurations are expressible here.

The cost function is the expectation of an arbitrary
:class:`~repro.problems.pauli.PauliSum` (MaxCut/SK diagonal Hamiltonians
or molecular Hamiltonians).

Batched execution (:meth:`TwoLocalAnsatz.expectation_many`) stacks many
parameter bindings on a
:class:`~repro.quantum.batched.BatchedStatevector`: every RY layer is a
per-row ``(B, 2, 2)`` rotation stack and the parameter-independent CZ
chain collapses to one shared ±1 diagonal, so a whole Tables 2-4 slice
grid runs in a handful of array passes instead of a circuit per point.
Noisy rows run vectorized as well: one circuit skeleton, replayed gate
by gate (the CZ chain included, so each entangler gate carries its
depolarizing channel) on a
:class:`~repro.quantum.batched_density.BatchedDensityMatrix` against the
batch's parameters as its angle matrix, with per-row noise models — see
:meth:`~repro.ansatz.base.Ansatz._density_many`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..problems.pauli import PauliSum
from ..quantum.batched import BatchedStatevector
from ..quantum.circuit import QuantumCircuit
from ..quantum.density import simulate_density
from ..quantum.gates import ry_many
from ..quantum.noise import NoiseModel
from .base import Ansatz
from ..utils import ensure_rng

__all__ = ["TwoLocalAnsatz"]


class TwoLocalAnsatz(Ansatz):
    """RY-rotation / CZ-entangler hardware-efficient ansatz."""

    #: Noisy rows run on the batched density engine (see
    #: :meth:`~repro.ansatz.base.Ansatz.batch_capacity`).
    noisy_engine = "density"

    def __init__(self, hamiltonian: PauliSum, reps: int = 1):
        if reps < 0:
            raise ValueError("reps must be >= 0")
        self.hamiltonian = hamiltonian
        self.reps = int(reps)
        self.num_qubits = hamiltonian.num_qubits
        self.num_parameters = self.num_qubits * (self.reps + 1)
        self._diagonal = hamiltonian.diagonal() if hamiltonian.is_diagonal else None
        self._matrix: np.ndarray | None = None
        # Lazy shared diagonal of the whole CZ entangler chain (built on
        # the first expectation_many call): the chain is
        # parameter-independent, so one elementwise sign multiply
        # replaces num_qubits - 1 two-qubit gate applications per block.
        self._entangler: np.ndarray | None = None

    def circuit(self, parameters: Sequence[float]) -> QuantumCircuit:
        """Alternating RY layers and linear CZ chains."""
        values = self._validate(parameters)
        qc = QuantumCircuit(self.num_qubits, name=f"twolocal-r{self.reps}")
        index = 0
        for layer in range(self.reps + 1):
            for qubit in range(self.num_qubits):
                qc.ry(float(values[index]), qubit)
                index += 1
            if layer < self.reps:
                for qubit in range(self.num_qubits - 1):
                    qc.cz(qubit, qubit + 1)
        return qc

    def _observable_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.hamiltonian.matrix()
        return self._matrix

    def _entangler_diagonal(self) -> np.ndarray:
        """Shared ``2**n`` diagonal of the linear CZ chain (cached).

        Entry ``z`` is ``(-1)**(number of adjacent 1-pairs in z)`` —
        the product of every ``CZ(q, q+1)`` in the chain.
        """
        if self._entangler is None:
            basis = np.arange(1 << self.num_qubits, dtype=np.uint64)
            pairs = basis & (basis >> np.uint64(1))
            signs = np.ones(basis.shape[0])
            for qubit in range(self.num_qubits - 1):
                signs *= 1.0 - 2.0 * ((pairs >> np.uint64(qubit)) & 1).astype(float)
            self._entangler = signs
        return self._entangler

    # -- batched fast path ----------------------------------------------------

    def statevector_many(
        self, parameters_batch: Sequence[Sequence[float]] | np.ndarray
    ) -> BatchedStatevector:
        """Exact output states for a parameter batch, one vectorized pass.

        Mirrors :meth:`circuit` gate for gate with a leading batch axis:
        each RY layer is ``num_qubits`` calls with a per-row ``(B, 2, 2)``
        rotation stack (:func:`~repro.quantum.gates.ry_many`), and each
        CZ entangler block is one shared elementwise sign multiply
        (:meth:`_entangler_diagonal`).
        """
        batch = self._validate_batch(parameters_batch)
        state = BatchedStatevector(self.num_qubits, batch_size=batch.shape[0])
        index = 0
        for layer in range(self.reps + 1):
            for qubit in range(self.num_qubits):
                state.apply_one_qubit(ry_many(batch[:, index]), qubit)
                index += 1
            if layer < self.reps:
                state.apply_diagonal(self._entangler_diagonal())
        return state

    def _expectation_state_many(self, state: BatchedStatevector) -> np.ndarray:
        """Per-row ``<H>`` of a batched state (diagonal fast path if any)."""
        if self._diagonal is not None:
            return state.expectation_diagonal(self._diagonal)
        return state.expectation_matrix(self._observable_matrix())

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
        noise is drawn after all rows are evaluated, one draw per row
        in batch order, so a serial loop over :meth:`expectation` with
        the same generator sees identical draws.
        """
        batch = self._validate_batch(parameters_batch)
        noise_rows = self._resolve_noise(noise, batch.shape[0])
        return self._expectation_many_split(
            batch,
            noise_rows,
            shots,
            rng,
            ideal_many=lambda rows: self._expectation_state_many(
                self.statevector_many(rows)
            ),
            noisy_many=self._density_many,
        )

    def _density_expectations(self, rho, models) -> np.ndarray:
        """Per-row ``<H>`` of a noisy density stack (diagonal fast path).

        Mirrors :meth:`_noisy_expectation`: diagonal observables go
        through readout-corrupted probabilities (with per-row readout
        rates), dense-matrix observables through ``Tr(rho O)``.
        """
        if self._diagonal is not None:
            readout = np.array(
                [0.0 if model is None else model.readout for model in models]
            )
            return rho.expectation_diagonal(self._diagonal, readout)
        return rho.expectation_matrix(self._observable_matrix())

    def _noisy_expectation(
        self, parameters: np.ndarray, model: NoiseModel
    ) -> float:
        """One row through the exact density engine (serial semantics)."""
        rho = simulate_density(self.circuit(parameters), model)
        if self._diagonal is not None:
            return rho.expectation_diagonal(self._diagonal, model.readout)
        return rho.expectation_matrix(self._observable_matrix())

    def expectation(
        self,
        parameters: Sequence[float],
        noise: NoiseModel | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """``<H>`` for the bound circuit.

        Ideal execution evaluates term-by-term on the statevector.
        Noisy execution runs the exact density-matrix engine (these
        ansatzes are used at n <= 6 in the paper's tables, where O(4^n)
        is cheap).
        """
        values = self._validate(parameters)
        if noise is not None and not noise.is_ideal:
            value = self._noisy_expectation(values, noise)
        else:
            state = self.statevector(values)
            if self._diagonal is not None:
                value = state.expectation_diagonal(self._diagonal)
            else:
                value = self.hamiltonian.expectation(state)
        if shots is None:
            return value
        rng = ensure_rng(rng)
        # Model shot noise as Gaussian with the observable's variance
        # bound; cheap and adequate for landscape jitter studies.
        spread = self._shot_scale()
        return value + rng.normal(0.0, spread / np.sqrt(shots))

    def _shot_scale(self) -> float:
        """Crude per-shot standard-deviation bound: sum of |coeffs|."""
        return float(sum(abs(term.coefficient) for term in self.hamiltonian))

    def cache_spec(self) -> dict:
        """Canonical content description for the landscape store."""
        return {
            "type": "twolocal",
            "reps": self.reps,
            "num_qubits": self.num_qubits,
            "hamiltonian": _pauli_sum_spec(self.hamiltonian),
        }

    def parameter_names(self) -> list[str]:
        return [
            f"theta_{layer}_{qubit}"
            for layer in range(self.reps + 1)
            for qubit in range(self.num_qubits)
        ]


def _pauli_sum_spec(hamiltonian: PauliSum) -> list[list]:
    """Canonical term list of a Pauli-sum observable: sorted
    ``[label, re, im]`` rows (complex coefficients split for JSON)."""
    return [
        [term.label, float(term.coefficient.real), float(term.coefficient.imag)]
        for term in sorted(hamiltonian, key=lambda term: term.label)
    ]
