"""Continuous interpolation of discrete landscapes.

The optimizer use cases (Secs. 7-8) run classical optimizers *on* a
reconstructed landscape instead of on the quantum device.  To allow
continuous-space optimization on the discrete grid, the paper uses
rectangular bivariate spline interpolation; :class:`InterpolatedLandscape`
wraps a cubic :class:`scipy.interpolate.RectBivariateSpline` for 2-D
grids (lower degree on axes with fewer than four points) and falls back
to :class:`scipy.interpolate.RegularGridInterpolator` for other
dimensionalities.

Queries outside the grid are clamped to the boundary — optimizers
occasionally step outside and the landscape is the only oracle we have.
Each call increments a query counter, which the Table 6 experiments use
to count "free" interpolated queries against real QPU queries.
"""

from __future__ import annotations

import numpy as np
from scipy import interpolate as _interpolate

from .landscape import Landscape

__all__ = ["InterpolatedLandscape"]


class InterpolatedLandscape:
    """A continuous, query-counting view of a discrete landscape."""

    def __init__(self, landscape: Landscape):
        self.landscape = landscape
        self.query_count = 0
        grid = landscape.grid
        self._lows = np.array([axis.low for axis in grid.axes])
        self._highs = np.array([axis.high for axis in grid.axes])
        if grid.ndim == 2:
            beta_axis, gamma_axis = grid.axis_values
            degree = min(3, len(beta_axis) - 1, len(gamma_axis) - 1)
            self._spline = _interpolate.RectBivariateSpline(
                beta_axis, gamma_axis, landscape.values, kx=degree, ky=degree
            )
            self._generic = None
        else:
            self._spline = None
            self._generic = _interpolate.RegularGridInterpolator(
                grid.axis_values,
                landscape.values,
                method="cubic" if min(grid.shape) >= 4 else "linear",
                bounds_error=False,
                fill_value=None,
            )

    def _clamp(self, parameters: np.ndarray) -> np.ndarray:
        return np.clip(parameters, self._lows, self._highs)

    def __call__(self, parameters: np.ndarray) -> float:
        """Interpolated cost at a continuous parameter vector."""
        self.query_count += 1
        point = self._clamp(np.asarray(parameters, dtype=float).reshape(-1))
        if point.shape[0] != self.landscape.grid.ndim:
            raise ValueError(
                f"expected {self.landscape.grid.ndim} parameters, got {point.shape[0]}"
            )
        if self._spline is not None:
            return float(self._spline(point[0], point[1])[0, 0])
        return float(self._generic(point[None, :])[0])

