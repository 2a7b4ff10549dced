"""Landscape analysis: what a full landscape lets you debug.

The paper's motivation (Sec. 1) lists what becomes possible once the
complete landscape is available: "calculate the variance of gradient
and probe directly into barren plateaus, check the quality of initial
points and convergence of optimization".  This module implements those
analyses on :class:`~repro.landscape.landscape.Landscape` objects:

- :func:`gradient_field` / :func:`gradient_magnitudes` — finite-
  difference gradients over the grid,
- :func:`barren_plateau_fraction` — the share of parameter space whose
  gradient magnitude is negligible (the barren-plateau probe),
- :func:`find_local_minima` — all strict local minima on the grid
  (local-trap census),
- :func:`basin_labels` — steepest-descent basin decomposition of the
  grid,
- :func:`initial_point_quality` — percentile rank + basin check for a
  candidate initial point,
- :func:`check_convergence` — did an optimizer path end in the global
  basin, and how far above the landscape minimum?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landscape import Landscape

__all__ = [
    "gradient_field",
    "gradient_magnitudes",
    "barren_plateau_fraction",
    "find_local_minima",
    "basin_labels",
    "InitialPointReport",
    "initial_point_quality",
    "ConvergenceReport",
    "check_convergence",
]


def gradient_field(landscape: Landscape) -> list[np.ndarray]:
    """Per-axis central-difference gradients, in physical units.

    Returns one array of ``landscape.grid.shape`` per axis (the
    components of the gradient at every grid point).
    """
    values = landscape.values
    components = []
    for axis_index, axis in enumerate(landscape.grid.axes):
        components.append(np.gradient(values, axis.step, axis=axis_index))
    return components


def gradient_magnitudes(landscape: Landscape) -> np.ndarray:
    """Euclidean norm of the gradient at every grid point."""
    components = gradient_field(landscape)
    return np.sqrt(sum(component**2 for component in components))


def barren_plateau_fraction(landscape: Landscape) -> float:
    """Fraction of the grid where the gradient is negligibly small.

    The threshold is relative to the landscape's value spread per unit
    parameter (so the metric is scale-invariant): a point belongs to a
    plateau when ``|grad| < 0.05 * ptp(values) / L`` with ``L`` the
    geometric mean axis length.
    """
    spread = float(np.ptp(landscape.values))
    if spread == 0.0:
        return 1.0
    lengths = [axis.high - axis.low for axis in landscape.grid.axes]
    characteristic_length = float(np.exp(np.mean(np.log(lengths))))
    threshold = 0.05 * spread / characteristic_length
    magnitudes = gradient_magnitudes(landscape)
    return float(np.mean(magnitudes < threshold))


def _neighbors(index: tuple[int, ...], shape: tuple[int, ...]):
    """Axis-aligned grid neighbours of a multi-index."""
    for axis, position in enumerate(index):
        for delta in (-1, 1):
            moved = position + delta
            if 0 <= moved < shape[axis]:
                neighbor = list(index)
                neighbor[axis] = moved
                yield tuple(neighbor)


def find_local_minima(landscape: Landscape) -> list[tuple[np.ndarray, float]]:
    """All grid points strictly below every axis-aligned neighbour.

    Returns ``[(parameter_vector, value), ...]`` sorted by value; the
    first entry is the global grid minimum.  A long list warns of a
    trap-riddled landscape (the Sec. 7 debugging scenario).
    """
    values = landscape.values
    shape = values.shape
    minima = []
    for flat in range(values.size):
        index = np.unravel_index(flat, shape)
        value = values[index]
        if all(value < values[nb] for nb in _neighbors(index, shape)):
            minima.append((landscape.grid.point(index), float(value)))
    minima.sort(key=lambda item: item[1])
    return minima


def basin_labels(landscape: Landscape) -> np.ndarray:
    """Steepest-descent basin decomposition of the grid.

    Every grid point is labelled by the flat index of the local minimum
    reached by repeatedly stepping to the smallest neighbour.  Points
    in the same basin share a label.
    """
    values = landscape.values
    shape = values.shape
    labels = np.full(values.size, -1, dtype=int)

    def descend(flat: int) -> int:
        trail = []
        current = flat
        while labels[current] == -1:
            trail.append(current)
            index = np.unravel_index(current, shape)
            best = current
            best_value = values[index]
            for neighbor in _neighbors(index, shape):
                neighbor_value = values[neighbor]
                if neighbor_value < best_value:
                    best_value = neighbor_value
                    best = int(np.ravel_multi_index(neighbor, shape))
            if best == current:
                labels[current] = current  # a local minimum
                break
            current = best
        root = labels[current] if labels[current] != -1 else current
        for visited in trail:
            labels[visited] = root
        return root

    for flat in range(values.size):
        descend(flat)
    return labels.reshape(shape)


@dataclass(frozen=True)
class InitialPointReport:
    """Quality assessment of a candidate initial point.

    Attributes:
        value: landscape value at the nearest grid point.
        percentile: rank of that value among all grid values (0 = best).
        in_global_basin: True if steepest descent from the point
            reaches the landscape's global grid minimum.
        distance_to_optimum: Euclidean parameter distance to the global
            grid minimum.
    """

    value: float
    percentile: float
    in_global_basin: bool
    distance_to_optimum: float


def initial_point_quality(
    landscape: Landscape, parameters: np.ndarray
) -> InitialPointReport:
    """Assess an initial point against the full landscape (Sec. 8)."""
    flat_values = landscape.flat()
    value = landscape.value_at(parameters)
    percentile = float(np.mean(flat_values < value))
    global_flat = int(np.argmin(flat_values))
    labels = basin_labels(landscape).reshape(-1)
    in_global = labels[landscape.grid.nearest_flat_index(parameters)] == labels[global_flat]
    _, optimum = landscape.minimum()
    distance = float(np.linalg.norm(np.asarray(parameters, float) - optimum))
    return InitialPointReport(
        value=value,
        percentile=percentile,
        in_global_basin=bool(in_global),
        distance_to_optimum=distance,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Did an optimization run converge to the right place?

    Attributes:
        endpoint_value: landscape value at the path's endpoint.
        excess_over_minimum: endpoint value minus the landscape minimum.
        converged_to_global_basin: endpoint sits in the global basin.
        stuck_in_local_minimum: endpoint is in a non-global basin whose
            minimum it has (nearly) reached — the classic local trap.
        endpoint: the final parameter vector.
    """

    endpoint_value: float
    excess_over_minimum: float
    converged_to_global_basin: bool
    stuck_in_local_minimum: bool
    endpoint: np.ndarray


def check_convergence(
    landscape: Landscape,
    path: np.ndarray,
) -> ConvergenceReport:
    """Diagnose an optimizer path against the full landscape (Sec. 7).

    An endpoint outside the global basin counts as stuck in a local
    minimum when it lies within 5% of the landscape's value spread of
    its basin minimum.

    Args:
        landscape: the (reconstructed) landscape to judge against.
        path: optimizer iterates, shape ``(steps, ndim)``.
    """
    path = np.atleast_2d(np.asarray(path, dtype=float))
    endpoint = path[-1]
    endpoint_value = landscape.value_at(endpoint)
    minimum_value, _ = landscape.minimum()
    labels = basin_labels(landscape).reshape(-1)
    endpoint_flat = landscape.grid.nearest_flat_index(endpoint)
    global_flat = int(np.argmin(landscape.flat()))
    in_global = labels[endpoint_flat] == labels[global_flat]
    basin_minimum = float(landscape.flat()[labels[endpoint_flat]])
    spread = float(np.ptp(landscape.values)) or 1.0
    stuck = (not in_global) and (
        endpoint_value - basin_minimum < 0.05 * spread
    )
    return ConvergenceReport(
        endpoint_value=endpoint_value,
        excess_over_minimum=float(endpoint_value - minimum_value),
        converged_to_global_basin=bool(in_global),
        stuck_in_local_minimum=bool(stuck),
        endpoint=endpoint,
    )
