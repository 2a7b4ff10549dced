"""Common interface for parameterized ansatz circuits.

An :class:`Ansatz` couples a parametric circuit factory with the
observable whose expectation defines the cost function.  The landscape
layer only ever talks to this interface, so QAOA (diagonal cost, fast
path) and VQE-style ansatzes (Pauli-sum cost) are interchangeable.

Two evaluation granularities are exposed:

- :meth:`Ansatz.expectation` — one parameter point;
- :meth:`Ansatz.expectation_many` — a whole ``(B, num_parameters)``
  batch of points.  The base implementation is a serial loop, so every
  ansatz supports the batched interface; all three shipped ansatzes
  override it with a vectorized execution path over a
  :class:`~repro.quantum.batched.BatchedStatevector` (QAOA's
  diagonal-phase fast path, Two-local's per-row RY stacks, UCCSD's
  per-row excitation stacks) while preserving the loop's semantics,
  including rng draw order.  ``noise`` may also be a per-row sequence,
  which is how batched ZNE folds its scale factors into the batch axis
  (see :class:`repro.mitigation.zne.ZneCostFunction`).  Noisy
  Two-local/UCCSD rows run vectorized too, on the batched density
  engine (:meth:`Ansatz._density_many` over a
  :class:`~repro.quantum.batched_density.BatchedDensityMatrix` with
  per-row noise models); :meth:`Ansatz.batch_capacity` tells the
  landscape layer how far the ``4**n``-per-row memory cost shrinks a
  chunk.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from ..quantum.batched import default_batch_size
from ..quantum.batched_density import (
    BatchedDensityMatrix,
    default_density_batch_size,
)
from ..quantum.circuit import QuantumCircuit
from ..quantum.noise import NoiseModel
from ..quantum.statevector import Statevector
from ..utils import ensure_rng

__all__ = ["Ansatz"]


class Ansatz(abc.ABC):
    """A parametric circuit plus the cost observable it is scored by."""

    #: number of free circuit parameters
    num_parameters: int
    #: circuit width
    num_qubits: int

    #: How noisy rows are simulated: ``"serial"`` (the generic
    #: per-row loop), ``"density"`` (the batched density engine via
    #: :meth:`_density_many` — Two-local/UCCSD), or ``"contraction"``
    #: (QAOA's analytic global-depolarizing factor).  Drives
    #: :meth:`batch_capacity`'s memory model.
    noisy_engine: str = "serial"

    @abc.abstractmethod
    def circuit(self, parameters: Sequence[float]) -> QuantumCircuit:
        """The bound circuit for concrete parameter values."""

    @abc.abstractmethod
    def expectation(
        self,
        parameters: Sequence[float],
        noise: NoiseModel | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Cost-function value at ``parameters``.

        Args:
            parameters: flat parameter vector of length
                :attr:`num_parameters`.
            noise: optional noise model; ``None`` means ideal execution.
            shots: if given, add measurement shot noise with this many
                shots; ``None`` returns the exact expectation.
            rng: random generator for shot/trajectory sampling.
        """

    def expectation_many(
        self,
        parameters_batch: Sequence[Sequence[float]] | np.ndarray,
        noise: NoiseModel | Sequence[NoiseModel | None] | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Cost-function values for a batch of parameter points.

        The generic implementation loops :meth:`expectation` row by row
        and exists so every ansatz can be driven through the batched
        execution layer; ansatzes with a vectorized simulation path
        override it.  Stochastic requests (``shots``) consume ``rng``
        one row at a time in batch order, so a serial loop over
        :meth:`expectation` with the same generator produces the same
        draws.

        Args:
            parameters_batch: ``(B, num_parameters)`` array-like of
                parameter vectors (a single flat vector is promoted to
                a batch of one).
            noise: optional noise model shared by all rows, or a
                length-``B`` sequence with one model (or ``None``) per
                row — the shape batched ZNE uses to fold its noise
                scale factors into the batch axis.
            shots: if given, add measurement shot noise per row.
            rng: random generator shared across the batch.

        Returns:
            The ``(B,)`` array of cost values, row-aligned with the
            input batch.

        Example — one vectorized pass over a batch of points matches
        the point-at-a-time loop exactly::

            >>> import numpy as np
            >>> from repro.ansatz import QaoaAnsatz
            >>> from repro.problems import random_3_regular_maxcut
            >>> ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
            >>> batch = np.linspace(0.0, 1.0, 6).reshape(3, 2)
            >>> values = ansatz.expectation_many(batch)
            >>> values.shape
            (3,)
            >>> serial = [ansatz.expectation(row) for row in batch]
            >>> bool(np.allclose(values, serial, atol=1e-10))
            True
        """
        batch = self._validate_batch(parameters_batch)
        noise_rows = self._resolve_noise(noise, batch.shape[0])
        if shots is not None:
            rng = ensure_rng(rng)
        return np.array(
            [
                self.expectation(row, noise=model, shots=shots, rng=rng)
                for row, model in zip(batch, noise_rows)
            ]
        ).reshape(batch.shape[0])

    def parameter_names(self) -> list[str]:
        """Stable display names for the parameters (default: p0..pk)."""
        return [f"p{i}" for i in range(self.num_parameters)]

    def cache_spec(self) -> dict:
        """Canonical content description for the landscape store.

        Must capture everything that determines expectation values —
        the structural parameters *and* the full problem content
        (couplings, Pauli terms, excitations) — as a JSON-able nested
        payload: two ansatzes with equal payloads must produce equal
        landscapes, and any content change must change the payload.
        The shipped ansatzes implement this; custom ansatzes must
        override it before their landscapes can be cached.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not describe itself for the "
            "landscape store; override cache_spec() to enable caching"
        )

    def statevector(self, parameters: Sequence[float]) -> Statevector:
        """The exact output state (default: simulate the circuit)."""
        return Statevector(self.num_qubits).evolve(self.circuit(parameters))

    def _validate(self, parameters: Sequence[float]) -> np.ndarray:
        values = np.asarray(parameters, dtype=float).reshape(-1)
        if values.shape[0] != self.num_parameters:
            raise ValueError(
                f"{type(self).__name__} expects {self.num_parameters} "
                f"parameters, got {values.shape[0]}"
            )
        return values

    def _resolve_noise(
        self,
        noise: NoiseModel | Sequence[NoiseModel | None] | None,
        batch_size: int,
    ) -> list[NoiseModel | None]:
        """Normalize a shared-or-per-row noise spec to one model per row.

        ``None`` or a single :class:`~repro.quantum.noise.NoiseModel`
        broadcasts over the batch; a sequence must supply exactly one
        entry (a model or ``None``) per row.
        """
        if noise is None or isinstance(noise, NoiseModel):
            return [noise] * batch_size
        rows = list(noise)
        if len(rows) != batch_size:
            raise ValueError(
                f"per-row noise needs {batch_size} entries, got {len(rows)}"
            )
        for model in rows:
            if model is not None and not isinstance(model, NoiseModel):
                raise TypeError(
                    f"per-row noise entries must be NoiseModel or None, "
                    f"got {type(model).__name__}"
                )
        return rows

    def _expectation_many_split(
        self,
        batch: np.ndarray,
        noise_rows: list[NoiseModel | None],
        shots: int | None,
        rng: np.random.Generator | None,
        ideal_many: "Callable[[np.ndarray], np.ndarray]",
        noisy_many: "Callable[[np.ndarray, list[NoiseModel]], np.ndarray]",
    ) -> np.ndarray:
        """Shared scaffold for native batched paths with per-row noise.

        Ideal rows are evaluated in one vectorized ``ideal_many`` call,
        noisy rows in one vectorized ``noisy_many(rows, models)`` call
        (typically :meth:`_density_many`), and shot noise is drawn
        afterwards one row at a time in batch order — the rng contract
        that keeps a seeded serial loop over :meth:`expectation`
        reproducing the batch draw for draw.  Subclasses using this
        must define ``_shot_scale()`` (the per-shot standard-deviation
        bound of their estimator).
        """
        noisy = self._noisy_mask(noise_rows)
        values = np.empty(batch.shape[0])
        ideal_indices = np.flatnonzero(~noisy)
        if ideal_indices.size:
            values[ideal_indices] = ideal_many(batch[ideal_indices])
        noisy_indices = np.flatnonzero(noisy)
        if noisy_indices.size:
            values[noisy_indices] = noisy_many(
                batch[noisy_indices],
                [noise_rows[index] for index in noisy_indices],
            )
        if shots is None:
            return values
        rng = ensure_rng(rng)
        sigma = self._shot_scale() / np.sqrt(shots)
        # One vectorized draw block: numpy Generators produce the same
        # bitstream for normal(size=B) as for B sequential scalar
        # draws, so row-order parity with the serial loop is preserved.
        return values + rng.normal(0.0, sigma, size=batch.shape[0])

    def _density_many(
        self, batch: np.ndarray, models: "list[NoiseModel]"
    ) -> np.ndarray:
        """Noisy rows through the batched density engine, chunked.

        Builds each row's bound circuit and replays the chunk as one
        :class:`~repro.quantum.batched_density.BatchedDensityMatrix`
        with per-row noise models; expectations are extracted by the
        :meth:`_density_expectations` hook the ansatz supplies.  Chunk
        size is the memory-capped
        :func:`~repro.quantum.batched_density.default_density_batch_size`
        (``4**n`` entries per row).
        """
        chunk = default_density_batch_size(self.num_qubits)
        values = np.empty(batch.shape[0])
        for start in range(0, batch.shape[0], chunk):
            rows = batch[start : start + chunk]
            chunk_models = models[start : start + chunk]
            rho = BatchedDensityMatrix(
                self.num_qubits, batch_size=rows.shape[0]
            )
            rho.evolve_circuits(
                [self.circuit(row) for row in rows], chunk_models
            )
            values[start : start + rows.shape[0]] = self._density_expectations(
                rho, chunk_models
            )
        return values

    def _density_expectations(
        self, rho: BatchedDensityMatrix, models: "list[NoiseModel]"
    ) -> np.ndarray:
        """Per-row observable values of an evolved noisy density stack.

        Required by :meth:`_density_many`; ansatzes routing noisy rows
        through the batched density engine override it (diagonal vs
        dense-matrix observable, readout handling).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not extract observables from "
            "the batched density engine"
        )

    def batch_capacity(
        self, noise: NoiseModel | Sequence[NoiseModel | None] | None = None
    ) -> int:
        """Memory-capped execution rows per chunk for a noise spec.

        Ideal batches are bounded by the statevector entry budget
        (``2**n`` entries per row); when any row is noisy and this
        ansatz simulates noisy rows on the batched density engine
        (:attr:`noisy_engine` ``== "density"``), each row holds
        ``4**n`` entries and the cap shrinks to
        :func:`~repro.quantum.batched_density.default_density_batch_size`.
        The landscape layer consults this through the cost functions'
        ``batch_capacity`` hooks
        (:func:`repro.landscape.generator.resolve_batch_size`).
        """
        if self.noisy_engine == "density" and self._any_noisy(noise):
            return default_density_batch_size(self.num_qubits)
        return default_batch_size(self.num_qubits)

    @staticmethod
    def _any_noisy(
        noise: NoiseModel | Sequence[NoiseModel | None] | None,
    ) -> bool:
        """Whether a shared-or-per-row noise spec has any non-ideal row."""
        if noise is None:
            return False
        if isinstance(noise, NoiseModel):
            return not noise.is_ideal
        return any(
            model is not None and not model.is_ideal for model in noise
        )

    @staticmethod
    def _noisy_mask(noise_rows: list[NoiseModel | None]) -> np.ndarray:
        """Boolean per-row mask of the rows with a non-ideal model."""
        return np.array(
            [model is not None and not model.is_ideal for model in noise_rows],
            dtype=bool,
        )

    def _shot_scale(self) -> float:
        """Per-shot standard-deviation bound of the estimator.

        Required by :meth:`_expectation_many_split`; ansatzes with a
        native batched path override it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a shot-noise scale"
        )

    def _validate_batch(
        self, parameters_batch: Sequence[Sequence[float]] | np.ndarray
    ) -> np.ndarray:
        batch = np.asarray(parameters_batch, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        if batch.ndim != 2 or batch.shape[1] != self.num_parameters:
            raise ValueError(
                f"{type(self).__name__} expects a (B, {self.num_parameters}) "
                f"parameter batch, got shape {batch.shape}"
            )
        return batch
