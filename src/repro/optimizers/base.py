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
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from ..utils import is_finite_real

__all__ = [
    "Objective",
    "OptimizationResult",
    "CountingObjective",
    "Optimizer",
    "check_options",
]

Objective = Callable[[np.ndarray], float]


def check_options(maxiter: int, **options: float) -> None:
    """Refuse bad optimizer options when the optimizer is built.

    ``maxiter`` must be a positive integer; every other option a finite
    number (bools refused): ``beta1``/``beta2`` in [0, 1) (the bias
    corrections divide by ``1 - beta**t``); the tolerances, SPSA's
    ``stability`` and its gain exponents ``alpha``/``gamma`` >= 0 (0
    never stops early, or keeps a gain constant); everything else (step
    sizes, gains, ``eps``, ``rhobeg``) > 0.  Every constructor passes all
    of its numeric options, so a bad ``optimizer_options`` in a pipeline
    config raises ``ValueError`` before any circuit runs.
    """
    if isinstance(maxiter, bool) or not isinstance(maxiter, Integral) or maxiter < 1:
        raise ValueError(f"maxiter must be a positive integer, got {maxiter!r}")
    for name, value in options.items():
        finite = is_finite_real(value)
        if name in ("beta1", "beta2"):
            valid, bound = finite and 0 <= value < 1, "in [0, 1)"
        elif name in ("tolerance", "gradient_tolerance", "stability", "alpha", "gamma"):
            valid, bound = finite and value >= 0, ">= 0"
        else:
            valid, bound = finite and value > 0, "> 0"
        if not valid:
            raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


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

    def _result(
        self, counting: CountingObjective, point: np.ndarray, path, converged: bool
    ) -> OptimizationResult:
        """The record of a from-scratch run ending at ``point``: one last
        query for its value, then the iterates and the query count."""
        return OptimizationResult(
            parameters=point,
            value=counting(point),
            num_queries=counting.num_queries,
            path=np.array(path),
            converged=converged,
            label=self.name,
        )

    @staticmethod
    def _as_array(initial_point: Sequence[float]) -> np.ndarray:
        point = np.asarray(initial_point, dtype=float).reshape(-1)
        if point.size == 0:
            raise ValueError("initial point must be non-empty")
        return point
