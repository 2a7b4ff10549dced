"""Two-parameter landscape slices of high-dimensional ansatzes.

Tables 2-4 of the paper evaluate reconstruction on ansatzes with 3-8
parameters.  Because dense grids are exponential in dimension, the
paper "evaluate[s] the reconstruction accuracy by randomly selecting
two varying parameters, fixing the rest to random values".  This module
implements that protocol: build a 2-D :class:`~repro.landscape.grid.ParameterGrid`
over a random pair of parameters and close over the ansatz with the
remaining parameters frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.base import Ansatz
from ..landscape.generator import LandscapeGenerator
from ..landscape.grid import GridAxis, ParameterGrid
from ..utils import ensure_rng

__all__ = ["SliceSpec", "SliceCostFunction", "random_slice", "slice_generator"]


@dataclass(frozen=True)
class SliceSpec:
    """A 2-D slice through an ansatz's parameter space.

    Attributes:
        varying: the two parameter indices that form the grid axes.
        fixed_values: full-length parameter vector supplying the frozen
            coordinates (the varying two are overwritten per query).
        grid: the 2-D grid over the varying parameters.
    """

    varying: tuple[int, int]
    fixed_values: np.ndarray
    grid: ParameterGrid


def random_slice(
    ansatz: Ansatz,
    points_per_axis: int,
    rng: np.random.Generator | None = None,
) -> SliceSpec:
    """Draw a random 2-parameter slice (the Tables 2-3 protocol).

    Both grid axes span ``[-pi, pi]``, and the frozen parameters are
    drawn uniformly from the same range.

    Args:
        ansatz: the ansatz being sliced.
        points_per_axis: equidistant samples per varying parameter
            (7 or 14 in the paper's tables).
        rng: random generator.
    """
    rng = ensure_rng(rng)
    if ansatz.num_parameters < 2:
        raise ValueError("slicing needs an ansatz with at least two parameters")
    varying = tuple(
        sorted(rng.choice(ansatz.num_parameters, size=2, replace=False).tolist())
    )
    fixed_values = rng.uniform(-np.pi, np.pi, size=ansatz.num_parameters)
    names = ansatz.parameter_names()
    grid = ParameterGrid(
        [
            GridAxis(names[varying[0]], -np.pi, np.pi, points_per_axis),
            GridAxis(names[varying[1]], -np.pi, np.pi, points_per_axis),
        ]
    )
    return SliceSpec(varying=varying, fixed_values=fixed_values, grid=grid)


class SliceCostFunction:
    """Cost over a 2-D slice: freeze all but two parameters of an ansatz.

    Batch-capable like
    :class:`~repro.landscape.generator.AnsatzCostFunction`: slice points
    are embedded into full parameter vectors and forwarded to
    :meth:`~repro.ansatz.base.Ansatz.expectation_many`, so QAOA,
    Two-local and UCCSD slices all ride their native vectorized
    execution paths (custom ansatzes without one fall back to the base
    class's serial loop with unchanged semantics).  Slices are exact and
    have no ``cache_spec`` (no store key, no wire form), so they run
    in-process.
    """

    def __init__(self, ansatz: Ansatz, spec: SliceSpec):
        self.ansatz = ansatz
        self.spec = spec

    @property
    def num_qubits(self) -> int:
        """Width of the underlying circuit (drives batch sizing)."""
        return self.ansatz.num_qubits

    def batch_capacity(self) -> int:
        """Memory-capped execution rows per chunk (the ideal budget)."""
        return self.ansatz.batch_capacity()

    def _embed(self, slice_points: np.ndarray) -> np.ndarray:
        """Expand ``(m, 2)`` slice points into full parameter vectors."""
        full = np.tile(self.spec.fixed_values, (slice_points.shape[0], 1))
        full[:, self.spec.varying[0]] = slice_points[:, 0]
        full[:, self.spec.varying[1]] = slice_points[:, 1]
        return full

    def __call__(self, slice_point: np.ndarray) -> float:
        """Cost at one 2-D slice point."""
        full = self.spec.fixed_values.copy()
        full[self.spec.varying[0]] = slice_point[0]
        full[self.spec.varying[1]] = slice_point[1]
        return self.ansatz.expectation(full)

    def many(self, slice_points: np.ndarray) -> np.ndarray:
        """Cost values for an ``(m, 2)`` batch of slice points."""
        return self.ansatz.expectation_many(
            self._embed(np.asarray(slice_points, dtype=float))
        )


def slice_generator(ansatz: Ansatz, spec: SliceSpec) -> LandscapeGenerator:
    """A batch-capable :class:`LandscapeGenerator` over the slice's grid."""
    return LandscapeGenerator(SliceCostFunction(ansatz, spec), spec.grid)
