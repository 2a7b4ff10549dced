"""Adaptive OSCAR: choose the sampling fraction on the fly.

The paper motivates OSCAR with the observation that debugging budgets
are unknown a priori ("the user does not know a priori how many
executions they will need").  The base reconstructor still requires the
user to pick a sampling fraction.  This extension removes that knob:

1. sample a small initial batch and reconstruct;
2. estimate the reconstruction error *without ground truth* by holdout
   cross-validation — reconstruct from a subset of the samples and
   measure the prediction error on the held-out samples (normalised
   like the paper's NRMSE);
3. if the estimate exceeds the target, draw another batch (from the
   still-unsampled grid points) and repeat, up to a fraction cap.

The validation estimate tracks the true NRMSE well because both are
dominated by the same residual spectrum; the adaptive benchmark
quantifies the tracking quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import LandscapeGenerator
from .landscape import Landscape
from .reconstructor import OscarReconstructor, ReconstructionReport
from ..utils import ensure_rng

__all__ = ["AdaptiveConfig", "AdaptiveOutcome", "adaptive_reconstruct", "holdout_error_estimate"]


def holdout_error_estimate(
    reconstructor: OscarReconstructor,
    flat_indices: np.ndarray,
    values: np.ndarray,
    rng: np.random.Generator | None = None,
    warm_start: np.ndarray | None = None,
) -> tuple[float, Landscape]:
    """Cross-validated NRMSE-style error estimate from samples alone.

    Reconstructs from a random 75% of the samples and scores the
    prediction on the held-out quarter, normalising by the
    interquartile range of the held-out values (mirroring Eq. 1's
    normalisation so estimates are comparable to true NRMSE values).

    Returns ``(estimate, landscape)``: the landscape is the internal
    reconstruction, which the adaptive loop reuses as the next round's
    ``warm_start`` (a coefficient array) so its repeated holdout solves
    converge in far fewer FISTA iterations.
    """
    rng = ensure_rng(rng)
    count = flat_indices.shape[0]
    if count < 8:
        raise ValueError("need at least 8 samples for a holdout estimate")
    holdout_size = max(2, int(round(0.25 * count)))
    permutation = rng.permutation(count)
    held = permutation[:holdout_size]
    kept = permutation[holdout_size:]
    landscape, _ = reconstructor.reconstruct_from_samples(
        flat_indices[kept], values[kept], label="holdout-recon",
        warm_start=warm_start,
    )
    predicted = landscape.flat()[flat_indices[held]]
    actual = values[held]
    rms = float(np.sqrt(np.mean((predicted - actual) ** 2)))
    q1, q3 = np.percentile(values, (25, 75))
    iqr = q3 - q1
    if iqr <= 1e-12 * max(1.0, float(np.abs(values).max())):
        return (0.0 if rms < 1e-12 else float("inf")), landscape
    return rms / iqr, landscape


@dataclass(frozen=True)
class AdaptiveConfig:
    """The adaptive sampling loop's stopping target.

    The first batch is 3% of the grid (at least 8 points), each later
    round grows the total sample count by 1.5x, and the total is capped
    at half the grid.

    Attributes:
        target_error: stop once the holdout estimate falls below this.
    """

    target_error: float = 0.1

    def __post_init__(self) -> None:
        if self.target_error <= 0:
            raise ValueError("target error must be positive")


@dataclass(frozen=True)
class AdaptiveOutcome:
    """Result of an adaptive reconstruction run.

    Attributes:
        landscape: the final reconstruction (from all gathered samples).
        report: final reconstruction diagnostics.
        error_estimates: holdout estimate after each round.
        fractions: cumulative sampling fraction after each round.
        met_target: True if the loop stopped because the estimate
            reached the target (False = fraction cap hit).
    """

    landscape: Landscape
    report: ReconstructionReport
    error_estimates: tuple[float, ...]
    fractions: tuple[float, ...]
    met_target: bool


def adaptive_reconstruct(
    reconstructor: OscarReconstructor,
    generator: LandscapeGenerator,
    config: AdaptiveConfig | None = None,
) -> AdaptiveOutcome:
    """Reconstruct with automatically chosen sampling fraction.

    Uses the reconstructor's RNG for all draws, so runs are reproducible
    given a seeded reconstructor.  Each round's holdout solve (and the
    final full solve) is warm-started from the previous round's
    reconstruction, so the repeated FISTA solves over growing sample
    sets converge in a fraction of the cold-start iterations.
    """
    config = config or AdaptiveConfig()
    grid = reconstructor.grid
    rng = reconstructor.rng
    sampled: np.ndarray = np.empty(0, dtype=int)
    values: np.ndarray = np.empty(0)
    estimates: list[float] = []
    fractions: list[float] = []
    met_target = False
    warm_start: np.ndarray | None = None
    target_count = max(8, int(round(0.03 * grid.size)))

    while True:
        # Draw the shortfall from the not-yet-sampled grid points.
        remaining = np.setdiff1d(np.arange(grid.size), sampled, assume_unique=False)
        needed = min(target_count, int(0.5 * grid.size)) - sampled.size
        if needed > 0 and remaining.size > 0:
            new_indices = rng.choice(
                remaining, size=min(needed, remaining.size), replace=False
            )
            new_values = generator.evaluate_indices(new_indices)
            sampled = np.concatenate([sampled, np.asarray(new_indices, int)])
            values = np.concatenate([values, new_values])
            order = np.argsort(sampled)
            sampled = sampled[order]
            values = values[order]

        estimate, holdout_landscape = holdout_error_estimate(
            reconstructor, sampled, values, rng, warm_start
        )
        warm_start = reconstructor.coefficients_of(holdout_landscape)
        estimates.append(estimate)
        fractions.append(sampled.size / grid.size)
        if estimate <= config.target_error:
            met_target = True
            break
        if sampled.size >= 0.5 * grid.size or remaining.size == 0:
            break
        target_count = int(np.ceil(sampled.size * 1.5))

    landscape, report = reconstructor.reconstruct_from_samples(
        sampled, values, label="oscar-adaptive", warm_start=warm_start
    )
    return AdaptiveOutcome(
        landscape=landscape,
        report=report,
        error_estimates=tuple(estimates),
        fractions=tuple(fractions),
        met_target=met_target,
    )
