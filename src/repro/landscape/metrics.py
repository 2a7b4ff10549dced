"""Landscape quality and shape metrics.

Implements every metric the paper reports:

- :func:`nrmse` — Eq. 1: RMS error between two landscapes, normalised
  by the interquartile range of the true landscape;
- :func:`second_derivative` — Eq. 2: the roughness statistic
  ``sum_i (x_i - 2 x_{i-1} + x_{i-2})^2 / 4``;
- :func:`variance_of_gradient` — Eq. 3: variance of first differences
  (the barren-plateau / flatness probe);
- :func:`landscape_variance` — Eq. 4: plain variance of the values;
- :func:`dct_sparsity` — Table 4's fraction of DCT coefficients needed
  for 99% of the signal energy.

The paper computes the 1-D formulas "on all dimensions" and averages;
:func:`_mean_over_axes` implements that convention for N-D arrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..cs.dct import energy_fraction_coefficients

__all__ = [
    "nrmse",
    "second_derivative",
    "variance_of_gradient",
    "landscape_variance",
    "dct_sparsity",
]


def nrmse(true_values: np.ndarray, reconstructed_values: np.ndarray) -> float:
    """Normalised root-mean-square error (paper Eq. 1).

    ``sqrt(mean((x - y)^2)) / (Q3(x) - Q1(x))`` with quartiles taken on
    the true landscape.  Scale-invariant, so errors are comparable
    across problems with different energy ranges.
    """
    x = np.asarray(true_values, dtype=float).reshape(-1)
    y = np.asarray(reconstructed_values, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError(
            f"landscape shapes differ: {x.shape} vs {y.shape}"
        )
    rms = np.sqrt(np.mean((x - y) ** 2))
    q1, q3 = np.percentile(x, (25, 75))
    iqr = q3 - q1
    # Guard against (numerically) constant landscapes, where the IQR is
    # zero up to round-off and Eq. 1 would divide by noise.
    scale = max(1.0, float(np.abs(x).max()))
    if iqr <= 1e-12 * scale:
        spread = float(np.ptp(x))
        if spread <= 1e-12 * scale:
            return 0.0 if rms <= 1e-12 * scale else float("inf")
        return float(rms / spread)
    return float(rms / iqr)


def _mean_over_axes(values: np.ndarray, statistic: Callable[[np.ndarray], float]) -> float:
    """Apply a 1-D statistic along every axis (all slices) and average."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return float(statistic(values))
    totals = []
    for axis in range(values.ndim):
        moved = np.moveaxis(values, axis, -1)
        flattened = moved.reshape(-1, values.shape[axis])
        totals.append(np.mean([statistic(row) for row in flattened]))
    return float(np.mean(totals))


def _second_derivative_1d(row: np.ndarray) -> float:
    if row.size < 3:
        return 0.0
    second = row[2:] - 2.0 * row[1:-1] + row[:-2]
    return float(np.sum(second**2) / 4.0)


def second_derivative(values: np.ndarray) -> float:
    """Roughness metric D2 (paper Eq. 2), averaged over dimensions."""
    return _mean_over_axes(values, _second_derivative_1d)


def _variance_of_gradient_1d(row: np.ndarray) -> float:
    if row.size < 2:
        return 0.0
    return float(np.var(np.diff(row)))


def variance_of_gradient(values: np.ndarray) -> float:
    """VoG flatness metric (paper Eq. 3), averaged over dimensions."""
    return _mean_over_axes(values, _variance_of_gradient_1d)


def landscape_variance(values: np.ndarray) -> float:
    """Plain variance of the landscape values (paper Eq. 4)."""
    return float(np.var(np.asarray(values, dtype=float)))


def dct_sparsity(values: np.ndarray) -> float:
    """Fraction of DCT coefficients holding 99% of the signal energy
    (Table 4's reported quantity: coefficient count / signal size)."""
    values = np.asarray(values)
    return energy_fraction_coefficients(values, 0.99) / values.size
