"""Scipy-backed optimizers with OSCAR-compatible diagnostics.

COBYLA is the gradient-free optimizer of the paper's experiments (the
Qiskit ``COBYLA`` is itself a thin wrapper over scipy's).  Nelder-Mead
is included as a second gradient-free option for the optimizer-choice
use case.  Both report query counts and the traversed path through
:class:`~repro.optimizers.base.CountingObjective`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import optimize as _optimize

from .base import (
    CountingObjective,
    Objective,
    OptimizationResult,
    Optimizer,
    check_options,
)

__all__ = ["Cobyla", "NelderMead"]


class Cobyla(Optimizer):
    """Constrained Optimization BY Linear Approximation (scipy)."""

    name = "cobyla"

    def __init__(self, maxiter: int = 1000, rhobeg: float = 0.3, tolerance: float = 1e-4):
        check_options(maxiter, tolerance, rhobeg=rhobeg)
        self.maxiter = maxiter
        self.rhobeg = rhobeg
        self.tolerance = tolerance

    def minimize(
        self, objective: Objective, initial_point: Sequence[float]
    ) -> OptimizationResult:
        counting = CountingObjective(objective)
        point = self._as_array(initial_point)
        outcome = _optimize.minimize(
            counting,
            point,
            method="COBYLA",
            options={
                "maxiter": self.maxiter,
                "rhobeg": self.rhobeg,
                "tol": self.tolerance,
            },
        )
        path = np.array([params for params, _ in counting.evaluations])
        return OptimizationResult(
            parameters=np.asarray(outcome.x, dtype=float),
            value=float(outcome.fun),
            num_queries=counting.num_queries,
            path=np.vstack([point[None, :], path]),
            converged=bool(outcome.success),
            label=self.name,
        )


class NelderMead(Optimizer):
    """Nelder-Mead downhill simplex (scipy)."""

    name = "nelder-mead"

    def __init__(self, maxiter: int = 500, tolerance: float = 1e-5):
        check_options(maxiter, tolerance)
        self.maxiter = maxiter
        self.tolerance = tolerance

    def minimize(
        self, objective: Objective, initial_point: Sequence[float]
    ) -> OptimizationResult:
        counting = CountingObjective(objective)
        point = self._as_array(initial_point)
        outcome = _optimize.minimize(
            counting,
            point,
            method="Nelder-Mead",
            options={
                "maxiter": self.maxiter,
                "xatol": self.tolerance,
                "fatol": self.tolerance,
            },
        )
        path = np.array([params for params, _ in counting.evaluations])
        return OptimizationResult(
            parameters=np.asarray(outcome.x, dtype=float),
            value=float(outcome.fun),
            num_queries=counting.num_queries,
            path=np.vstack([point[None, :], path]),
            converged=bool(outcome.success),
            label=self.name,
        )
