"""Parameter grids for landscape generation.

A :class:`ParameterGrid` is the discretisation of the ansatz parameter
space: one :class:`GridAxis` per circuit parameter, each with a range
and a point count.  Table 1 of the paper defines the reference grids:

- p=1 QAOA: beta in [-pi/4, pi/4] x 50 points, gamma in [-pi/2, pi/2]
  x 100 points (5k points total);
- p=2 QAOA: betas in [-pi/8, pi/8] x 12, gammas in [-pi/4, pi/4] x 15
  (32.4k points total), reconstructed after reshaping 4-D -> 2-D by
  concatenating the beta axes and the gamma axes (Sec. 4.2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["GridAxis", "ParameterGrid", "qaoa_grid", "validate_flat_indices"]


def validate_flat_indices(
    size: int, flat_indices: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Normalise flat grid indices to int64: the library's one index check.

    Float, bool and string indices are refused, not truncated.  Negative
    indices are refused rather than wrapped: ``numpy`` fancy indexing
    would silently alias ``-1`` to the last grid point, which turns an
    off-by-one in a sampler into a wrong-but-plausible landscape value
    instead of an error.  Kept as a module function (parameterized by
    ``size``) so duck-typed grid stand-ins that only expose
    ``size``/``points_from_flat`` get the same checks.
    """
    flat = np.asarray(flat_indices)
    if flat.size and flat.dtype.kind not in "iu":
        raise ValueError(f"flat indices must be integers, got dtype {flat.dtype}")
    flat = flat.astype(np.int64, copy=False)
    if flat.size:
        low = int(flat.min())
        high = int(flat.max())
        if low < 0:
            raise ValueError(
                f"flat index {low} is negative, so out of range: negative "
                "indices would silently wrap to the end of the grid"
            )
        if high >= size:
            raise ValueError(
                f"flat index {high} is out of range for a grid of "
                f"{size} points"
            )
    return flat


@dataclass(frozen=True)
class GridAxis:
    """One discretised parameter axis."""

    name: str
    low: float
    high: float
    num_points: int

    def __post_init__(self) -> None:
        if self.num_points < 2:
            raise ValueError("an axis needs at least two points")
        if not self.high > self.low:
            raise ValueError("axis range must have high > low")

    @property
    def values(self) -> np.ndarray:
        """The axis sample positions (uniform, inclusive of endpoints)."""
        return np.linspace(self.low, self.high, self.num_points)

    @property
    def step(self) -> float:
        """Spacing between consecutive points."""
        return (self.high - self.low) / (self.num_points - 1)


class ParameterGrid:
    """A dense rectangular grid over the ansatz parameter space."""

    def __init__(self, axes: Sequence[GridAxis]):
        if not axes:
            raise ValueError("a grid needs at least one axis")
        self.axes = tuple(axes)

    @property
    def ndim(self) -> int:
        """Number of parameter axes."""
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        """Points per axis."""
        return tuple(axis.num_points for axis in self.axes)

    @property
    def size(self) -> int:
        """Total number of grid points."""
        return int(np.prod(self.shape))

    @property
    def axis_values(self) -> tuple[np.ndarray, ...]:
        """Sample positions along every axis."""
        return tuple(axis.values for axis in self.axes)

    def point(self, grid_index: Sequence[int]) -> np.ndarray:
        """Physical parameter values at a multi-index."""
        if len(grid_index) != self.ndim:
            raise ValueError("grid index arity mismatch")
        return np.array(
            [axis.values[i] for axis, i in zip(self.axes, grid_index)]
        )

    def point_from_flat(self, flat_index: int) -> np.ndarray:
        """Physical parameter values at a flat (row-major) index."""
        return self.point(np.unravel_index(int(flat_index), self.shape))

    def points_from_flat(self, flat_indices: np.ndarray) -> np.ndarray:
        """Vectorised ``(m, ndim)`` parameter values for flat indices
        (checked by :func:`validate_flat_indices`)."""
        unraveled = np.unravel_index(
            validate_flat_indices(self.size, flat_indices), self.shape
        )
        columns = [
            axis.values[index_array]
            for axis, index_array in zip(self.axes, unraveled)
        ]
        return np.stack(columns, axis=1)

    def iter_points(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(flat_index, parameter_vector)`` for the whole grid."""
        for flat in range(self.size):
            yield flat, self.point_from_flat(flat)

    def nearest_flat_index(self, parameters: Sequence[float]) -> int:
        """Flat index of the grid point closest to a parameter vector."""
        if len(parameters) != self.ndim:
            raise ValueError("parameter vector arity mismatch")
        multi = tuple(
            int(np.argmin(np.abs(axis.values - value)))
            for axis, value in zip(self.axes, parameters)
        )
        return int(np.ravel_multi_index(multi, self.shape))

    @property
    def bounds(self) -> list[tuple[float, float]]:
        """Per-axis (low, high) bounds."""
        return [(axis.low, axis.high) for axis in self.axes]

    def reshaped_2d_shape(self) -> tuple[int, int]:
        """The paper's concatenation reshape for high-dim grids.

        A ``2p``-dimensional QAOA grid of shape ``(b, ..., b, g, ..., g)``
        is reshaped to 2-D by merging the first half of the axes and the
        second half — e.g. (12, 12, 15, 15) -> (144, 225).  Grids with
        an odd number of axes (e.g. a 3-parameter UCCSD landscape) are
        split as evenly as possible, the extra axis going to the first
        group.  For an already 2-D grid this is the identity; 1-D grids
        cannot be reshaped.
        """
        if self.ndim == 1:
            raise ValueError("a 1-D grid has no 2-D concatenation reshape")
        if self.ndim == 2:
            return self.shape  # type: ignore[return-value]
        half = (self.ndim + 1) // 2
        first = int(np.prod(self.shape[:half]))
        second = int(np.prod(self.shape[half:]))
        return (first, second)


def qaoa_grid(
    p: int = 1,
    resolution: Sequence[int] | None = None,
) -> ParameterGrid:
    """The paper's Table 1 QAOA grids (optionally re-resolved).

    The ranges are Table 1's: beta in ``[-pi/4, pi/4]`` and gamma in
    ``[-pi/2, pi/2]`` for p=1, and half those for deeper circuits.

    Args:
        p: QAOA depth (1 or 2 in the paper; any p >= 1 accepted).
        resolution: ``(beta_points, gamma_points)`` override.  Defaults
            to Table 1: (50, 100) for p=1, (12, 15) per axis for p=2,
            and (12, 15) for deeper circuits.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        default_res, (beta_low, beta_high), (gamma_low, gamma_high) = (
            (50, 100),
            (-math.pi / 4, math.pi / 4),
            (-math.pi / 2, math.pi / 2),
        )
    else:
        default_res, (beta_low, beta_high), (gamma_low, gamma_high) = (
            (12, 15),
            (-math.pi / 8, math.pi / 8),
            (-math.pi / 4, math.pi / 4),
        )
    beta_points, gamma_points = resolution or default_res
    axes = [
        GridAxis(f"beta_{layer}", beta_low, beta_high, beta_points)
        for layer in range(p)
    ] + [
        GridAxis(f"gamma_{layer}", gamma_low, gamma_high, gamma_points)
        for layer in range(p)
    ]
    return ParameterGrid(axes)
