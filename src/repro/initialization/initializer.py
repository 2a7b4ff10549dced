"""OSCAR-based initial-point selection.

The pipeline (Sec. 8): reconstruct the landscape with OSCAR, build the
spline interpolation, minimise *on the interpolation* (queries are
instant and free of QPU cost), and return the converged point as the
initial point for the regular, circuit-executing workflow.

:class:`OscarInitializer` records both cost ledgers the paper's Table 6
compares: the reconstruction's QPU queries and the subsequent real
optimization's queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..landscape.generator import LandscapeGenerator
from ..landscape.interpolate import InterpolatedLandscape
from ..landscape.landscape import Landscape
from ..landscape.reconstructor import OscarReconstructor
from ..optimizers.base import Optimizer
from ..utils import ensure_rng

__all__ = ["InitializationOutcome", "OscarInitializer", "random_initial_point"]


def random_initial_point(
    bounds: list[tuple[float, float]], rng: np.random.Generator
) -> np.ndarray:
    """Uniform random point within per-axis bounds (the baseline)."""
    return np.array([rng.uniform(low, high) for low, high in bounds])


@dataclass(frozen=True)
class InitializationOutcome:
    """An OSCAR-chosen initial point plus its cost ledger.

    Attributes:
        initial_point: the point to hand to the regular workflow.
        landscape_value: interpolated cost at that point.
        reconstruction_queries: QPU queries spent reconstructing.
        surrogate_queries: free (interpolated) optimizer queries.
        landscape: the reconstructed landscape (for reuse/inspection).
    """

    initial_point: np.ndarray
    landscape_value: float
    reconstruction_queries: int
    surrogate_queries: int
    landscape: Landscape


class OscarInitializer:
    """Chooses initial points by minimising a reconstructed landscape.

    The surrogate optimization runs from four starts: the landscape's
    grid minimum and three uniform random points.
    """

    def __init__(
        self,
        reconstructor: OscarReconstructor,
        optimizer: Optimizer,
        sampling_fraction: float = 0.05,
        rng: np.random.Generator | int | None = None,
    ):
        self.reconstructor = reconstructor
        self.optimizer = optimizer
        self.sampling_fraction = sampling_fraction
        self.rng = ensure_rng(rng)

    def choose(self, generator: LandscapeGenerator) -> InitializationOutcome:
        """Reconstruct, interpolate, minimise, return the best point."""
        landscape, report = self.reconstructor.reconstruct(
            generator, self.sampling_fraction, label="oscar-init"
        )
        return self.choose_from_landscape(landscape, report.num_samples)

    def choose_from_landscape(
        self, landscape: Landscape, reconstruction_queries: int
    ) -> InitializationOutcome:
        """Run the surrogate optimization on an existing landscape."""
        surrogate = InterpolatedLandscape(landscape)
        bounds = landscape.grid.bounds
        best_point: np.ndarray | None = None
        best_value = np.inf
        # Restart from the landscape's grid minimum plus three random
        # points: the grid minimum is nearly always in the right basin.
        starts = [landscape.minimum()[1]]
        for _ in range(3):
            starts.append(random_initial_point(bounds, self.rng))
        for start in starts:
            result = self.optimizer.minimize(surrogate, start)
            if result.value < best_value:
                best_value = result.value
                best_point = result.parameters
        assert best_point is not None
        clipped = np.clip(
            best_point,
            [low for low, _ in bounds],
            [high for _, high in bounds],
        )
        return InitializationOutcome(
            initial_point=clipped,
            landscape_value=float(surrogate(clipped)),
            reconstruction_queries=int(reconstruction_queries),
            surrogate_queries=int(surrogate.query_count),
            landscape=landscape,
        )
