"""Batched multi-landscape reconstruction engine.

Every experiment in the suite reconstructs *many* landscapes — one per
problem instance, sampling fraction, device pair or mitigation setting —
and the serial path pays the full FISTA iteration overhead (two FFTs
plus Python dispatch per iteration) for each one.
:class:`ReconstructionEngine` amortises that cost: it stacks B
coefficient arrays along a leading axis and runs a **single** vectorized
FISTA loop, evaluating ``scipy.fft.dctn`` over the trailing axes of the
whole ``(B, *shape)`` stack at once.

Key properties:

- **Exact per-problem semantics.**  Each stacked problem performs the
  same iterates, the same auto-``lam`` heuristic and the same stopping
  test as :func:`~repro.cs.reconstruct.reconstruct_signal`, so batched
  and serial results agree to floating-point noise.
- **Convergence masks.**  Problems converge independently; finished
  rows are compacted out of the working stack so they stop contributing
  FFT work while the stragglers iterate on.
- **Warm starts.**  Per-problem initial coefficients (e.g. the previous
  solution when re-solving with a grown sample set) cut iteration
  counts dramatically for repeated solves.
- **Graceful fallback.**  The non-FISTA solvers ("omp", "bp") have no
  batched formulation; the engine transparently solves those problems
  serially so callers can always batch.

The per-sample measurement operator is expressed densely per problem:
the measured values are embedded into a zero grid (``targets``) with a
boolean support mask (``masks``), which makes the forward/adjoint pair
uniform across problems with different sample counts — the whole stack
is just ``mask * idctn(coeffs) - target`` followed by ``dctn``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dct import inverse_transform, transform
from .reconstruct import (
    ReconstructionConfig,
    reconstruct_signal,
    validate_sample_set,
)
from .solvers import SolverResult, auto_lambda

__all__ = ["ReconstructionEngine"]


class ReconstructionEngine:
    """Reconstructs a stack of landscapes in one vectorized solve.

    Attributes:
        shape: the (reshaped 2-D) grid shape every stacked problem
            shares.
        config: the reconstruction configuration applied to every
            problem in the stack.
    """

    def __init__(
        self, shape: tuple[int, ...], config: ReconstructionConfig | None = None
    ):
        self.shape = tuple(int(n) for n in shape)
        if any(n < 1 for n in self.shape):
            raise ValueError(f"invalid grid shape {shape!r}")
        self.size = int(np.prod(self.shape))
        self.config = config or ReconstructionConfig()

    # -- validation ----------------------------------------------------------

    def _validated(
        self, problems: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Normalise and validate every (indices, values) problem."""
        return [
            validate_sample_set(
                self.size, flat_indices, values, context=f"problem {position}"
            )
            for position, (flat_indices, values) in enumerate(problems)
        ]

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        problems: Sequence[tuple[np.ndarray, np.ndarray]],
        warm_starts: Sequence[np.ndarray | None] | None = None,
    ) -> list[tuple[np.ndarray, SolverResult]]:
        """Reconstruct every ``(flat_indices, values)`` problem.

        Args:
            problems: per-landscape sample sets; sample counts may
                differ between problems.
            warm_starts: optional per-problem initial coefficient
                arrays (``None`` entries start from zeros).

        Returns:
            One ``(signal, solver_result)`` pair per problem, in input
            order — the same contract as
            :func:`~repro.cs.reconstruct.reconstruct_signal`.
        """
        problems = self._validated(problems)
        if warm_starts is not None and len(warm_starts) != len(problems):
            raise ValueError("need one warm start (or None) per problem")
        if not problems:
            return []
        # The batched loop replicates the serial FISTA exactly; a
        # non-FISTA solver routes serially.
        if self.config.solver != "fista":
            return self._solve_serial(problems, warm_starts)
        coefficients, iterations, converged, lambdas = self._solve_batched_fista(
            problems, warm_starts
        )
        axes = tuple(range(1, len(self.shape) + 1))
        signals = inverse_transform(coefficients, self.config.basis, axes)
        results = self._results(
            coefficients, signals, iterations, converged, lambdas, problems
        )
        return [
            (signals[index], results[index]) for index in range(len(problems))
        ]

    def _solve_serial(
        self,
        problems: list[tuple[np.ndarray, np.ndarray]],
        warm_starts: Sequence[np.ndarray | None] | None,
    ) -> list[tuple[np.ndarray, SolverResult]]:
        """Fallback for solvers with no batched formulation (omp, bp)."""
        output = []
        for position, (flat_indices, values) in enumerate(problems):
            warm = warm_starts[position] if warm_starts is not None else None
            output.append(
                reconstruct_signal(self.shape, flat_indices, values, self.config, warm)
            )
        return output

    # -- the batched FISTA loop --------------------------------------------------

    def _embed(
        self, problems: list[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(targets, masks)`` stacks for the measurement model.

        Masks are float (1.0 on the sampled support) so the restriction
        operator is a single in-place multiply in the hot loop.
        """
        batch = len(problems)
        targets = np.zeros((batch, self.size))
        masks = np.zeros((batch, self.size))
        for row, (flat_indices, values) in enumerate(problems):
            targets[row, flat_indices] = values
            masks[row, flat_indices] = 1.0
        return (
            targets.reshape((batch, *self.shape)),
            masks.reshape((batch, *self.shape)),
        )

    def _lambdas(self, targets: np.ndarray) -> np.ndarray:
        """Per-problem L1 penalties (the serial auto heuristic, rowwise)."""
        batch = targets.shape[0]
        if self.config.lam is not None:
            return np.full(batch, float(self.config.lam))
        axes = tuple(range(1, len(self.shape) + 1))
        # adjoint(y) == transform of the embedded measurements.
        correlation = transform(targets, self.config.basis, axes)
        return np.array(
            [
                auto_lambda(correlation[row], self.config.resolved_penalize_dc())
                for row in range(batch)
            ]
        )

    def _solve_batched_fista(
        self,
        problems: list[tuple[np.ndarray, np.ndarray]],
        warm_starts: Sequence[np.ndarray | None] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One vectorized FISTA loop over the whole problem stack.

        Returns ``(coefficients, iterations, converged, lambdas)`` —
        the final ``(B, *shape)`` coefficient stack plus per-problem
        diagnostics, all in input order.
        """
        config = self.config
        batch = len(problems)
        ndim = len(self.shape)
        axes = tuple(range(1, ndim + 1))
        column = (slice(None),) + (np.newaxis,) * ndim  # (A,) -> (A, 1, ..., 1)
        penalize_dc = config.resolved_penalize_dc()

        targets, masks = self._embed(problems)
        lambdas = self._lambdas(targets)
        all_lambdas = lambdas.copy()

        coefficients = np.zeros((batch, *self.shape))
        if warm_starts is not None:
            for row, warm in enumerate(warm_starts):
                if warm is not None:
                    coefficients[row] = np.asarray(warm, dtype=float).reshape(
                        self.shape
                    )
        momentum = coefficients.copy()
        t_previous = np.ones(batch)

        # Final outputs, filled in as rows converge and leave the stack.
        final = coefficients.copy()
        iterations = np.zeros(batch, dtype=int)
        converged = np.zeros(batch, dtype=bool)

        # The working stack holds only still-active problems; `rows`
        # maps working positions back to input positions.
        rows = np.arange(batch)

        # The iterates below mirror fista_lasso exactly (unit step) but
        # run the whole active stack through each numpy call,
        # buffer-reusing to keep per-iteration allocations to four
        # (B, *shape) arrays.
        for iteration in range(1, config.max_iterations + 1):
            active = rows.size
            residual = inverse_transform(momentum, config.basis, axes)
            residual *= masks
            residual -= targets
            candidate = transform(residual, config.basis, axes)
            np.subtract(momentum, candidate, out=candidate)
            if not penalize_dc:
                dc_values = candidate.reshape(active, -1)[:, 0].copy()
            updated = np.abs(candidate)
            updated -= lambdas[column]
            np.maximum(updated, 0.0, out=updated)
            np.copysign(updated, candidate, out=updated)
            if not penalize_dc:
                updated.reshape(active, -1)[:, 0] = dc_values
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_previous**2))
            difference = updated - coefficients
            flat_difference = difference.reshape(active, -1)
            flat_coefficients = coefficients.reshape(active, -1)
            change = np.sqrt(
                np.einsum("ab,ab->a", flat_difference, flat_difference)
            )
            reference = np.maximum(
                np.sqrt(
                    np.einsum("ab,ab->a", flat_coefficients, flat_coefficients)
                ),
                1e-12,
            )
            momentum = difference
            momentum *= ((t_previous - 1.0) / t_next)[column]
            momentum += updated
            coefficients = updated
            t_previous = t_next
            iterations[rows] = iteration
            done = change / reference < config.tolerance
            if np.any(done):
                finished = rows[done]
                final[finished] = coefficients[done]
                converged[finished] = True
                keep = ~done
                rows = rows[keep]
                if not rows.size:
                    break
                coefficients = coefficients[keep]
                momentum = momentum[keep]
                targets = targets[keep]
                masks = masks[keep]
                lambdas = lambdas[keep]
                t_previous = t_previous[keep]
        if rows.size:
            final[rows] = coefficients
        return final, iterations, converged, all_lambdas

    def _results(
        self,
        coefficients: np.ndarray,
        signals: np.ndarray,
        iterations: np.ndarray,
        converged: np.ndarray,
        lambdas: np.ndarray,
        problems: list[tuple[np.ndarray, np.ndarray]],
    ) -> list[SolverResult]:
        """Per-problem diagnostics matching the serial SolverResult."""
        flat_signals = signals.reshape(len(problems), -1)
        results = []
        for row, (flat_indices, values) in enumerate(problems):
            residual = flat_signals[row, flat_indices] - values
            objective = 0.5 * float(residual @ residual) + float(
                lambdas[row]
            ) * float(np.abs(coefficients[row]).sum())
            results.append(
                SolverResult(
                    coefficients[row],
                    int(iterations[row]),
                    bool(converged[row]),
                    objective,
                )
            )
        return results
