"""Common optimizer interface and run records.

Every optimizer consumes a plain objective ``parameters -> float`` and
produces an :class:`OptimizationResult` that records the full traversed
path and the number of function queries — the two quantities the
paper's use cases measure (optimizer paths in Figs. 11-13, query counts
in Table 6).

:class:`CountingObjective` wraps any objective with query counting and
path recording so scipy-backed optimizers report the same diagnostics
as the from-scratch ones.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Objective",
    "OptimizationResult",
    "CountingObjective",
    "Optimizer",
    "check_options",
]

Objective = Callable[[np.ndarray], float]


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number (bools excluded)."""
    return (
        not isinstance(value, bool)
        and isinstance(value, Real)
        and math.isfinite(value)
    )


def check_options(maxiter: int, tolerance: float, **positive: float) -> None:
    """Refuse bad optimizer options when the optimizer is built.

    ``maxiter`` must be a positive integer, ``tolerance`` a finite
    number >= 0 (0 runs to ``maxiter``), and each keyword in
    ``positive`` (COBYLA's ``rhobeg``) a finite number > 0; bools are
    refused everywhere.  Every constructor calls this, so a bad
    ``optimizer_options`` in a pipeline config raises ``ValueError``
    before any circuit runs.
    """
    if isinstance(maxiter, bool) or not isinstance(maxiter, Integral) or maxiter < 1:
        raise ValueError(f"maxiter must be a positive integer, got {maxiter!r}")
    if not (_finite_real(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    for name, value in positive.items():
        if not (_finite_real(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run.

    Attributes:
        parameters: best parameter vector found.
        value: objective value at :attr:`parameters`.
        num_queries: objective evaluations consumed.
        path: sequence of iterates (rows), including the initial point.
        converged: True if the optimizer's own stopping rule fired
            (rather than the iteration cap).
        label: optimizer tag ("adam", "cobyla", ...).
    """

    parameters: np.ndarray
    value: float
    num_queries: int
    path: np.ndarray
    converged: bool
    label: str = ""


class CountingObjective:
    """Wraps an objective with query counting and iterate recording."""

    def __init__(self, objective: Objective):
        self._objective = objective
        self.num_queries = 0
        self.evaluations: list[tuple[np.ndarray, float]] = []

    def __call__(self, parameters: np.ndarray) -> float:
        parameters = np.asarray(parameters, dtype=float).copy()
        value = float(self._objective(parameters))
        self.num_queries += 1
        self.evaluations.append((parameters, value))
        return value


class Optimizer(abc.ABC):
    """Base class: concrete optimizers implement :meth:`minimize`."""

    #: display tag used in results
    name: str = "optimizer"

    @abc.abstractmethod
    def minimize(
        self, objective: Objective, initial_point: Sequence[float]
    ) -> OptimizationResult:
        """Minimise ``objective`` starting at ``initial_point``."""

    @staticmethod
    def _as_array(initial_point: Sequence[float]) -> np.ndarray:
        point = np.asarray(initial_point, dtype=float).reshape(-1)
        if point.size == 0:
            raise ValueError("initial point must be non-empty")
        return point
