"""OSCAR: compressed-sensing landscape reconstruction (the headline API).

:class:`OscarReconstructor` implements the three-phase workflow of
Fig. 3 of the paper:

1. **Parameter sampling** — draw a small random fraction of grid points;
2. **Circuit execution** — evaluate the cost function only at those
   points (via a :class:`~repro.landscape.generator.LandscapeGenerator`
   or any pre-measured values);
3. **Landscape reconstruction** — solve the L1/DCT sparse-recovery
   problem to produce the full landscape.

High-dimensional grids (p >= 2 QAOA) are reshaped to 2-D by the paper's
axis-concatenation before reconstruction (Sec. 4.2.4).

Two reconstruction paths are exposed:

- :meth:`~OscarReconstructor.reconstruct_from_samples` solves a single
  landscape through the solver registry of
  :mod:`~repro.cs.reconstruct`; pass ``warm_start=`` (a coefficient
  array, e.g. from :meth:`~OscarReconstructor.coefficients_of`) to seed
  FISTA when re-solving with a grown or perturbed sample set.
- :meth:`~OscarReconstructor.reconstruct_many` solves a whole stack of
  sample sets in one vectorized pass through the batched
  :class:`~repro.cs.engine.ReconstructionEngine` — the fast path for
  experiment sweeps that reconstruct dozens of landscapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cs.dct import transform
from ..cs.engine import ReconstructionEngine
from ..cs.reconstruct import (
    ReconstructionConfig,
    reconstruct_signal,
    validate_sample_set,
)
from ..cs.sampling import stratified_indices, uniform_random_indices
from ..cs.solvers import SolverResult
from .generator import LandscapeGenerator
from .grid import ParameterGrid
from .landscape import Landscape
from ..utils import ensure_rng

__all__ = ["OscarReconstructor", "ReconstructionReport", "sample_and_evaluate"]


def sample_and_evaluate(
    generator: LandscapeGenerator,
    reconstructor: "OscarReconstructor",
    fraction: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one sample set and evaluate it: ``(flat_indices, values)``.

    The shared phase-1+2 step of every sweep that batches its
    reconstructions (the sampling/mitigation studies, ``oscar-repro
    batch``): sample indices from the reconstructor's rng, evaluate
    them through the generator — which routes through the daemon's
    sparse ``compute_indices`` op when the generator has ``daemon=``
    set — and return the pair ready for
    :meth:`OscarReconstructor.reconstruct_many`.
    """
    flat_indices = reconstructor.sample_indices(fraction)
    return flat_indices, generator.evaluate_indices(flat_indices)


@dataclass(frozen=True)
class ReconstructionReport:
    """Diagnostics of one OSCAR reconstruction.

    Attributes:
        num_samples: circuit executions used.
        grid_size: full grid size the samples were drawn from.
        sampling_fraction: ``num_samples / grid_size``.
        speedup: circuit-execution speedup over a dense grid search.
        solver_iterations: L1 solver iterations.
        solver_converged: whether the solver met its tolerance.
    """

    num_samples: int
    grid_size: int
    sampling_fraction: float
    speedup: float
    solver_iterations: int
    solver_converged: bool


class OscarReconstructor:
    """Reconstructs full landscapes from a sampled fraction of points."""

    #: The index samplers :meth:`sample_indices` draws with (the names
    #: the pipeline config and ``oscar-repro pipeline --sampler`` take).
    SAMPLERS = ("uniform", "stratified")

    def __init__(
        self,
        grid: ParameterGrid,
        config: ReconstructionConfig | None = None,
        sampler: str = "uniform",
        rng: np.random.Generator | int | None = None,
    ):
        if sampler not in self.SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}")
        self.grid = grid
        self.config = config or ReconstructionConfig()
        self.sampler = sampler
        self.rng = ensure_rng(rng)

    # -- phase 1: sampling ---------------------------------------------------

    def sample_indices(self, fraction: float) -> np.ndarray:
        """Random flat grid indices for a target sampling fraction."""
        if self.sampler == "uniform":
            return uniform_random_indices(self.grid.size, fraction, self.rng)
        return stratified_indices(self.grid.size, fraction, self.rng)

    # -- phase 2+3: execute and reconstruct -----------------------------------

    def reconstruct(
        self,
        generator: LandscapeGenerator,
        fraction: float,
        label: str = "oscar-recon",
    ) -> tuple[Landscape, ReconstructionReport]:
        """Full OSCAR run: sample, execute, reconstruct.

        Args:
            generator: evaluates the cost function at sampled points.
            fraction: sampling fraction in (0, 1].
            label: provenance tag for the output landscape.
        """
        indices = self.sample_indices(fraction)
        values = generator.evaluate_indices(indices)
        return self.reconstruct_from_samples(indices, values, label)

    def reconstruct_from_samples(
        self,
        flat_indices: np.ndarray,
        values: np.ndarray,
        label: str = "oscar-recon",
        warm_start: np.ndarray | None = None,
    ) -> tuple[Landscape, ReconstructionReport]:
        """Phase 3 only: reconstruct from already-measured samples.

        This is the entry point for hardware datasets (Fig. 5/6) and the
        parallel/NCM pipeline, where execution happened elsewhere.

        Args:
            flat_indices: sampled flat grid indices (distinct).
            values: measured values aligned with ``flat_indices``.
            label: provenance tag for the output landscape.
            warm_start: optional initial FISTA coefficients (the
                reshaped-2-D coefficient array), e.g. from
                :meth:`coefficients_of` on a previous reconstruction.
        """
        flat_indices, values = self._validated_samples(flat_indices, values)
        shape = self.grid.reshaped_2d_shape()
        signal, solver_result = reconstruct_signal(
            shape, flat_indices, values, self.config, warm_start
        )
        return self._package(signal, solver_result, flat_indices, label)

    def reconstruct_many(
        self,
        sample_sets: Sequence[tuple[np.ndarray, np.ndarray]],
        labels: Sequence[str] | None = None,
    ) -> list[tuple[Landscape, ReconstructionReport]]:
        """Reconstruct many sample sets in one batched engine pass.

        All sample sets share this reconstructor's grid and solver
        configuration; the engine stacks them along a leading axis and
        runs a single vectorized FISTA loop with per-landscape
        convergence masks (see :mod:`repro.cs.engine`).  Results match
        the serial :meth:`reconstruct_from_samples` per problem.  Every
        solve starts cold; warm starts are the engine's
        (:meth:`~repro.cs.engine.ReconstructionEngine.solve`).

        Args:
            sample_sets: ``(flat_indices, values)`` per landscape.
            labels: optional provenance tags, one per sample set.

        Returns:
            ``(landscape, report)`` pairs in input order.
        """
        if labels is not None and len(labels) != len(sample_sets):
            raise ValueError("need one label per sample set")
        # The engine validates every problem (integer indices in range,
        # lengths, duplicates, finiteness) — no need to repeat it here.
        # Indices are flattened exactly as the validator flattens them so
        # the packaged reports count samples the same way.
        sample_sets = [
            (np.reshape(flat_indices, -1), values)
            for flat_indices, values in sample_sets
        ]
        shape = self.grid.reshaped_2d_shape()
        engine = ReconstructionEngine(shape, self.config)
        solved = engine.solve(sample_sets)
        output = []
        for position, (signal, solver_result) in enumerate(solved):
            label = labels[position] if labels is not None else "oscar-recon"
            output.append(
                self._package(
                    signal, solver_result, sample_sets[position][0], label
                )
            )
        return output

    def coefficients_of(self, landscape: Landscape) -> np.ndarray:
        """Basis coefficients of a landscape (for warm-starting).

        Because the basis is orthonormal, the forward transform of a
        reconstructed landscape is exactly the solver's coefficient
        array — pass it as ``warm_start`` to a follow-up solve.
        """
        return transform(landscape.reshaped_2d(), self.config.basis)

    # -- internals -----------------------------------------------------------

    def _validated_samples(
        self, flat_indices: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return validate_sample_set(self.grid.size, flat_indices, values)

    def _package(
        self,
        signal: np.ndarray,
        solver_result: SolverResult,
        flat_indices: np.ndarray,
        label: str,
    ) -> tuple[Landscape, ReconstructionReport]:
        landscape = Landscape(
            self.grid,
            signal.reshape(self.grid.shape),
            label=label,
            circuit_executions=int(flat_indices.shape[0]),
        )
        report = ReconstructionReport(
            num_samples=int(flat_indices.shape[0]),
            grid_size=self.grid.size,
            sampling_fraction=flat_indices.shape[0] / self.grid.size,
            speedup=self.grid.size / max(1, flat_indices.shape[0]),
            solver_iterations=solver_result.iterations,
            solver_converged=solver_result.converged,
        )
        return landscape, report
