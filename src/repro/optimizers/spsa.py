"""Simultaneous Perturbation Stochastic Approximation (SPSA).

SPSA estimates the gradient from just two objective queries per step
regardless of dimension, which makes it the standard noisy-hardware
optimizer for VQAs.  The paper's optimizer-selection use case benefits
from having a third optimizer family alongside ADAM (gradient-based)
and COBYLA (model-based, gradient-free).

Gain sequences follow the Spall (1998) guidelines:
``a_k = a / (k + 1 + A)^alpha`` and ``c_k = c / (k + 1)^gamma``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import (
    CountingObjective,
    Objective,
    OptimizationResult,
    Optimizer,
    check_options,
)
from ..utils import ensure_rng

__all__ = ["Spsa"]


class Spsa(Optimizer):
    """SPSA minimiser with Rademacher perturbations."""

    name = "spsa"

    def __init__(
        self,
        maxiter: int = 200,
        a: float = 0.1,
        c: float = 0.1,
        alpha: float = 0.602,
        gamma: float = 0.101,
        stability: float | None = None,
        tolerance: float = 1e-6,
        rng: np.random.Generator | int | None = None,
    ):
        check_options(maxiter, tolerance)
        self.maxiter = maxiter
        self.a = a
        self.c = c
        self.alpha = alpha
        self.gamma = gamma
        self.stability = stability if stability is not None else 0.1 * maxiter
        self.tolerance = tolerance
        self.rng = ensure_rng(rng)

    def minimize(
        self, objective: Objective, initial_point: Sequence[float]
    ) -> OptimizationResult:
        counting = CountingObjective(objective)
        point = self._as_array(initial_point)
        path = [point.copy()]
        converged = False
        for step_index in range(self.maxiter):
            a_k = self.a / (step_index + 1 + self.stability) ** self.alpha
            c_k = self.c / (step_index + 1) ** self.gamma
            delta = self.rng.choice((-1.0, 1.0), size=point.shape)
            value_plus = counting(point + c_k * delta)
            value_minus = counting(point - c_k * delta)
            gradient = (value_plus - value_minus) / (2.0 * c_k) * delta
            update = a_k * gradient
            point = point - update
            path.append(point.copy())
            if np.linalg.norm(update) < self.tolerance:
                converged = True
                break
        final_value = counting(point)
        return OptimizationResult(
            parameters=point,
            value=final_value,
            num_queries=counting.num_queries,
            path=np.array(path),
            converged=converged,
            label=self.name,
        )
