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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["Objective", "OptimizationResult", "CountingObjective", "Optimizer"]

Objective = Callable[[np.ndarray], float]


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
