"""Small shared helpers that do not belong to any one subsystem.

Each decides one question in exactly one place: every module that
optionally accepts an ``rng`` routes through :func:`ensure_rng` (``None``,
an integer seed, or a ready :class:`numpy.random.Generator`), and every
checked number (configs, optimizer options, token files) through
:func:`is_finite_real`.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

__all__ = ["ensure_rng", "is_finite_real"]


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite real number (bools excluded)."""
    return (
        not isinstance(value, bool)
        and isinstance(value, Real)
        and math.isfinite(value)
    )


def ensure_rng(
    rng: np.random.Generator | int | None = None,
) -> np.random.Generator:
    """Normalize an optional rng argument into a ready generator.

    Args:
        rng: ``None`` (fresh OS-entropy generator), an integer seed, or
            an existing :class:`numpy.random.Generator` (returned as-is,
            so callers can share one stream across components).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(int(rng))
