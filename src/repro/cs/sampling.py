"""Random grid-point samplers for OSCAR's parameter-sampling phase.

The paper samples circuit parameters "randomly and uniformly from the
entire parameter space" over the grid.  We implement that scheme plus a
stratified variant (used in the ablation study) that spreads samples
more evenly, and helpers to convert between flat indices, grid indices
and physical parameter values.
"""

from __future__ import annotations

import numpy as np

from ..utils import ensure_rng

__all__ = [
    "sample_count_for_fraction",
    "uniform_random_indices",
    "stratified_indices",
]


def sample_count_for_fraction(grid_size: int, fraction: float) -> int:
    """Number of samples for a target sampling fraction (at least 1)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("sampling fraction must be in (0, 1]")
    return max(1, int(round(fraction * grid_size)))


def uniform_random_indices(
    grid_size: int,
    fraction: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Uniformly random distinct flat indices (the paper's scheme)."""
    rng = ensure_rng(rng)
    count = sample_count_for_fraction(grid_size, fraction)
    return np.sort(rng.choice(grid_size, size=count, replace=False))


def stratified_indices(
    grid_size: int,
    fraction: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Stratified sampler: one uniform draw per equal-width stratum.

    Divides ``[0, grid_size)`` into ``count`` *disjoint* contiguous
    strata and samples one point in each, guaranteeing coverage of the
    whole grid and exactly ``count`` distinct indices (so the realized
    sampling fraction always matches the requested one).  Used by the
    sampling-scheme ablation benchmark.
    """
    rng = ensure_rng(rng)
    count = sample_count_for_fraction(grid_size, fraction)
    # Integer stratum edges: strictly increasing (count <= grid_size),
    # so strata are disjoint, non-empty, and tile [0, grid_size).
    edges = (np.arange(count + 1) * grid_size) // count
    return rng.integers(edges[:-1], edges[1:])
