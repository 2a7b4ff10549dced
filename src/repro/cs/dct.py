"""Orthonormal DCT basis operations.

OSCAR reconstructs landscapes in the type-II Discrete Cosine Transform
basis (Appendix A of the paper): a landscape ``x`` is modelled as
``x = idct(s)`` with sparse coefficients ``s``.  All transforms here use
``norm="ortho"`` so the basis is orthonormal — the adjoint of the
synthesis operator is exactly the forward DCT, which the L1 solvers rely
on for their gradient steps.

Functions operate on N-dimensional arrays via :func:`scipy.fft.dctn`,
so 1-D signals, 2-D landscapes and the reshaped 4-D p=2 landscapes all
go through the same code path.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

__all__ = [
    "dct_transform",
    "idct_transform",
    "dst_transform",
    "idst_transform",
    "transform",
    "inverse_transform",
    "dct_basis_matrix",
    "energy_fraction_coefficients",
    "BASES",
]

BASES = ("dct", "dst")


def dct_transform(
    values: np.ndarray, axes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Forward orthonormal DCT-II over every axis (or a subset).

    ``axes`` restricts the transform to the given axes — the batched
    reconstruction engine transforms a ``(B, *shape)`` stack over the
    trailing axes only, leaving the problem axis untouched.
    """
    return _fft.dctn(np.asarray(values, dtype=float), norm="ortho", axes=axes)


def idct_transform(
    coefficients: np.ndarray, axes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Inverse orthonormal DCT (synthesis: coefficients -> signal)."""
    return _fft.idctn(np.asarray(coefficients, dtype=float), norm="ortho", axes=axes)


def dst_transform(
    values: np.ndarray, axes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Forward orthonormal DST-II (the basis-choice ablation).

    The sine basis implies odd (zero) boundary extension, which VQA
    landscapes do not satisfy — the ablation benchmark quantifies the
    resulting penalty versus the DCT's even extension.
    """
    return _fft.dstn(np.asarray(values, dtype=float), norm="ortho", axes=axes)


def idst_transform(
    coefficients: np.ndarray, axes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Inverse orthonormal DST (synthesis)."""
    return _fft.idstn(np.asarray(coefficients, dtype=float), norm="ortho", axes=axes)


def transform(
    values: np.ndarray, basis: str = "dct", axes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Forward transform in a named orthonormal basis."""
    if basis == "dct":
        return dct_transform(values, axes)
    if basis == "dst":
        return dst_transform(values, axes)
    raise ValueError(f"unknown basis {basis!r}; choose from {BASES}")


def inverse_transform(
    coefficients: np.ndarray, basis: str = "dct", axes: tuple[int, ...] | None = None
) -> np.ndarray:
    """Inverse transform in a named orthonormal basis."""
    if basis == "dct":
        return idct_transform(coefficients, axes)
    if basis == "dst":
        return idst_transform(coefficients, axes)
    raise ValueError(f"unknown basis {basis!r}; choose from {BASES}")


def dct_basis_matrix(length: int) -> np.ndarray:
    """Dense 1-D orthonormal DCT-II synthesis matrix ``Psi``.

    Column ``k`` is the k-th cosine basis vector, so ``x = Psi @ s``.
    Used by the basis-pursuit linear program and by tests; the iterative
    solvers never materialise it.
    """
    identity = np.eye(length)
    return np.stack(
        [_fft.idct(identity[:, k], norm="ortho") for k in range(length)], axis=1
    )


def energy_fraction_coefficients(values: np.ndarray, fraction: float = 0.99) -> int:
    """Minimum number of DCT coefficients holding ``fraction`` of energy.

    This is the paper's Table 4 statistic: sort squared DCT coefficients
    in decreasing order and count how many are needed to reach the given
    fraction of the total squared norm.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    coefficients = dct_transform(values).reshape(-1)
    energy = np.sort(coefficients**2)[::-1]
    total = energy.sum()
    if total == 0.0:
        return 0
    cumulative = np.cumsum(energy) / total
    return int(np.searchsorted(cumulative, fraction) + 1)

