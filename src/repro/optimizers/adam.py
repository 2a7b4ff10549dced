"""ADAM with finite-difference gradients.

This follows the update rule of Qiskit's ``ADAM`` optimizer (the
gradient-based optimizer of the paper's Secs. 7-8): first-order moments
``m``, second-order moments ``v``, bias correction, and central
finite-difference gradients when no analytic gradient is available.

The defaults are ``maxiter=150``, ``learning_rate=0.05``, ``beta1=0.9``,
``beta2=0.99``, ``eps=1e-8``, ``tolerance=1e-6`` on the step norm and
``gradient_tolerance=1e-3`` on the gradient norm.  They differ from
Qiskit's: the learning rate is 50x Qiskit's ``lr=1e-3``, and Qiskit has
no gradient-norm stop.  Table 6 runs
``Adam(maxiter=300, tolerance=1e-3, gradient_tolerance=5e-3)``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .base import (
    CountingObjective,
    Objective,
    OptimizationResult,
    Optimizer,
    check_options,
)

__all__ = ["Adam", "GradientDescent", "finite_difference_gradient"]


def finite_difference_gradient(
    objective: Objective, point: np.ndarray, step: float = 1e-3
) -> np.ndarray:
    """Central finite-difference gradient (2 queries per dimension)."""
    gradient = np.empty_like(point)
    for index in range(point.shape[0]):
        forward = point.copy()
        backward = point.copy()
        forward[index] += step
        backward[index] -= step
        gradient[index] = (objective(forward) - objective(backward)) / (2.0 * step)
    return gradient


class Adam(Optimizer):
    """ADAM minimiser with finite-difference gradients."""

    name = "adam"

    def __init__(
        self,
        maxiter: int = 150,
        learning_rate: float = 0.05,
        beta1: float = 0.9,
        beta2: float = 0.99,
        eps: float = 1e-8,
        tolerance: float = 1e-6,
        gradient_tolerance: float = 1e-3,
        gradient_step: float = 1e-3,
        gradient: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        check_options(maxiter, tolerance)
        self.maxiter = maxiter
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.tolerance = tolerance
        # ADAM's update magnitude is ~learning_rate regardless of the
        # gradient scale (the m/sqrt(v) ratio is scale-invariant), so a
        # step-norm tolerance alone almost never fires.  Convergence is
        # therefore also declared when the raw gradient norm falls
        # below this threshold — the practically useful criterion near
        # an optimum.
        self.gradient_tolerance = gradient_tolerance
        self.gradient_step = gradient_step
        self.gradient = gradient

    def minimize(
        self, objective: Objective, initial_point: Sequence[float]
    ) -> OptimizationResult:
        counting = CountingObjective(objective)
        point = self._as_array(initial_point)
        path = [point.copy()]
        m = np.zeros_like(point)
        v = np.zeros_like(point)
        converged = False
        for step_index in range(1, self.maxiter + 1):
            if self.gradient is not None:
                gradient = np.asarray(self.gradient(point), dtype=float)
            else:
                gradient = finite_difference_gradient(
                    counting, point, self.gradient_step
                )
            if np.linalg.norm(gradient) < self.gradient_tolerance:
                converged = True
                break
            m = self.beta1 * m + (1.0 - self.beta1) * gradient
            v = self.beta2 * v + (1.0 - self.beta2) * gradient**2
            m_hat = m / (1.0 - self.beta1**step_index)
            v_hat = v / (1.0 - self.beta2**step_index)
            update = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
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


class GradientDescent(Optimizer):
    """Plain gradient descent (finite-difference), for ablations."""

    name = "gd"

    def __init__(
        self,
        maxiter: int = 200,
        learning_rate: float = 0.05,
        tolerance: float = 1e-6,
        gradient_step: float = 1e-3,
    ):
        check_options(maxiter, tolerance)
        self.maxiter = maxiter
        self.learning_rate = learning_rate
        self.tolerance = tolerance
        self.gradient_step = gradient_step

    def minimize(
        self, objective: Objective, initial_point: Sequence[float]
    ) -> OptimizationResult:
        counting = CountingObjective(objective)
        point = self._as_array(initial_point)
        path = [point.copy()]
        converged = False
        for _ in range(self.maxiter):
            gradient = finite_difference_gradient(counting, point, self.gradient_step)
            update = self.learning_rate * gradient
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
