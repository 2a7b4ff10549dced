"""QAOA landscape symmetries and symmetry-aware reconstruction.

The paper's related-work section (Sec. 9) surveys a line of work that
exploits landscape symmetry to cut QAOA training cost (Shaydulin & Wild
2021).  This module brings that idea into the OSCAR pipeline:

- **time-reversal symmetry** — for any real cost Hamiltonian the QAOA
  expectation obeys ``C(-beta, -gamma) = C(beta, gamma)`` (complex
  conjugation of the state maps one onto the other), so the standard
  symmetric Table 1 grids are two copies of a half landscape;
- :func:`time_reversal_symmetry_error` verifies the symmetry on a
  measured landscape (a debugging signal in itself: a broken symmetry
  indicates biased hardware noise or a software bug);
- :func:`symmetrize` averages the two halves (a free noise reduction);
- :func:`half_grid_indices` / :func:`mirror_flat_index` support
  **symmetry-folded OSCAR**: sample only in the half-space, mirror the
  samples for free, and reconstruct — doubling the effective sampling
  fraction at no circuit cost (quantified in the symmetry benchmark).
"""

from __future__ import annotations

import numpy as np

from .grid import ParameterGrid
from .landscape import Landscape

__all__ = [
    "is_centrosymmetric_grid",
    "mirror_flat_index",
    "time_reversal_symmetry_error",
    "symmetrize",
    "half_grid_indices",
    "mirror_samples",
]


def is_centrosymmetric_grid(grid: ParameterGrid) -> bool:
    """True if every axis is symmetric about zero (low = -high, to 1e-9).

    Point reflection through the origin then maps grid points onto grid
    points (index ``i`` onto ``n - 1 - i`` per axis), which the folding
    helpers rely on.
    """
    return all(abs(axis.low + axis.high) <= 1e-9 for axis in grid.axes)


def mirror_flat_index(flat_index: int, shape: tuple[int, ...]) -> int:
    """The flat index of the point-reflected grid position."""
    multi = np.unravel_index(int(flat_index), shape)
    mirrored = tuple(n - 1 - i for i, n in zip(multi, shape))
    return int(np.ravel_multi_index(mirrored, shape))


def time_reversal_symmetry_error(landscape: Landscape) -> float:
    """RMS asymmetry ``C(x) - C(-x)``, normalised by the value spread.

    Zero (up to noise) for any correct QAOA landscape of a real cost
    Hamiltonian on a centrosymmetric grid; a large value flags biased
    noise or an implementation bug.
    """
    if not is_centrosymmetric_grid(landscape.grid):
        raise ValueError("symmetry check requires a grid symmetric about zero")
    values = landscape.values
    reflected = values[tuple(slice(None, None, -1) for _ in values.shape)]
    spread = float(np.ptp(values)) or 1.0
    return float(np.sqrt(np.mean((values - reflected) ** 2)) / spread)


def symmetrize(landscape: Landscape) -> Landscape:
    """Average the landscape with its point reflection.

    For a symmetric true landscape this halves independent per-point
    noise variance at zero circuit cost.
    """
    if not is_centrosymmetric_grid(landscape.grid):
        raise ValueError("symmetrisation requires a grid symmetric about zero")
    values = landscape.values
    reflected = values[tuple(slice(None, None, -1) for _ in values.shape)]
    return landscape.with_values(
        0.5 * (values + reflected), label=f"{landscape.label}-symmetrized"
    )


def half_grid_indices(grid: ParameterGrid) -> np.ndarray:
    """Flat indices of one representative per symmetry orbit.

    Keeps index ``k`` iff ``k <= mirror(k)``; self-symmetric central
    points appear once.  Sampling from this set and mirroring covers
    the whole grid with half the circuit executions.
    """
    if not is_centrosymmetric_grid(grid):
        raise ValueError("folding requires a grid symmetric about zero")
    size = grid.size
    keep = [
        flat for flat in range(size) if flat <= mirror_flat_index(flat, grid.shape)
    ]
    return np.asarray(keep, dtype=int)


def mirror_samples(
    grid: ParameterGrid, flat_indices: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extend samples with their free mirror images.

    Each measured ``(index, value)`` pair contributes its reflection
    ``(mirror(index), value)``; duplicates (self-symmetric points or
    already-present mirrors) are dropped, keeping the first occurrence.
    """
    flat_indices = np.asarray(flat_indices, dtype=int)
    values = np.asarray(values, dtype=float)
    if flat_indices.shape[0] != values.shape[0]:
        raise ValueError("indices and values must align")
    mirrored = np.array(
        [mirror_flat_index(flat, grid.shape) for flat in flat_indices], dtype=int
    )
    all_indices = np.concatenate([flat_indices, mirrored])
    all_values = np.concatenate([values, values])
    unique, first_positions = np.unique(all_indices, return_index=True)
    return unique, all_values[first_positions]
