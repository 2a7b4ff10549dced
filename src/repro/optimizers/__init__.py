"""Classical optimizers with query counting and path recording.

- :class:`~repro.optimizers.adam.Adam` — gradient-based (Qiskit's update
  rule), the paper's gradient-based reference,
- :class:`~repro.optimizers.scipy_wrappers.Cobyla` — the paper's
  gradient-free reference,
- :class:`~repro.optimizers.adam.GradientDescent`,
  :class:`~repro.optimizers.spsa.Spsa`,
  :class:`~repro.optimizers.scipy_wrappers.NelderMead` — extras used by
  the optimizer-selection use case and ablations.
"""

from .adam import Adam, GradientDescent, finite_difference_gradient
from .base import CountingObjective, Objective, OptimizationResult, Optimizer
from .scipy_wrappers import Cobyla, NelderMead
from .spsa import Spsa

__all__ = [
    "Adam",
    "GradientDescent",
    "finite_difference_gradient",
    "CountingObjective",
    "Objective",
    "OptimizationResult",
    "Optimizer",
    "Cobyla",
    "NelderMead",
    "Spsa",
    "available_optimizers",
    "make_optimizer",
]

#: Name -> class registry behind :func:`make_optimizer`.  Names are what
#: the ``pipeline`` service op and CLI accept, so they must stay stable.
_OPTIMIZERS: dict[str, type[Optimizer]] = {
    "adam": Adam,
    "gradient-descent": GradientDescent,
    "cobyla": Cobyla,
    "nelder-mead": NelderMead,
    "spsa": Spsa,
}


def available_optimizers() -> tuple[str, ...]:
    """The optimizer names :func:`make_optimizer` accepts (sorted)."""
    return tuple(sorted(_OPTIMIZERS))


def make_optimizer(name: str, **options) -> Optimizer:
    """Build an optimizer by registry name.

    ``options`` are passed straight to the constructor (``maxiter``,
    ``tolerance``, ...).  This is how the daemon's ``pipeline`` op and
    the ``oscar-repro pipeline`` subcommand select their optimizer from
    a plain string.
    """
    try:
        factory = _OPTIMIZERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; choose from {available_optimizers()}"
        ) from None
    return factory(**options)
