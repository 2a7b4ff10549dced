"""ASCII landscape rendering.

The paper's debugging story is visual ("bird's-eye view", Fig. 2), and
this environment has no plotting backend, so we render landscapes as
terminal heatmaps: a character ramp over the value range, optional
optimizer-path overlay, and side-by-side comparison for
original-vs-reconstructed pairs (the Figs. 5/9 layout).
"""

from __future__ import annotations

import numpy as np

from ..landscape.landscape import Landscape

__all__ = ["render_side_by_side", "render_path_overlay"]

_RAMP = " .:-=+*#%@"


def _downsample(values: np.ndarray, max_rows: int, max_cols: int) -> np.ndarray:
    rows, cols = values.shape
    row_step = max(1, int(np.ceil(rows / max_rows)))
    col_step = max(1, int(np.ceil(cols / max_cols)))
    return values[::row_step, ::col_step]


def _to_characters(values: np.ndarray, lo: float, hi: float) -> list[str]:
    span = hi - lo if hi > lo else 1.0
    normalised = np.clip((values - lo) / span, 0.0, 1.0)
    levels = (normalised * (len(_RAMP) - 1)).astype(int)
    return ["".join(_RAMP[level] for level in row) for row in levels]


def render_side_by_side(
    left: Landscape,
    right: Landscape,
    max_rows: int = 20,
    max_cols: int = 36,
    titles: tuple[str, str] | None = None,
) -> str:
    """Two landscapes side by side on a shared value scale."""
    left_values = left.reshaped_2d()
    right_values = right.reshaped_2d()
    lo = min(float(left_values.min()), float(right_values.min()))
    hi = max(float(left_values.max()), float(right_values.max()))
    left_lines = _to_characters(_downsample(left_values, max_rows, max_cols), lo, hi)
    right_lines = _to_characters(_downsample(right_values, max_rows, max_cols), lo, hi)
    height = max(len(left_lines), len(right_lines))
    width_left = len(left_lines[0]) if left_lines else 0
    left_lines += [" " * width_left] * (height - len(left_lines))
    width_right = len(right_lines[0]) if right_lines else 0
    right_lines += [" " * width_right] * (height - len(right_lines))
    left_title, right_title = titles or (left.label, right.label)
    header = f"{left_title:<{width_left}}   |   {right_title}"
    rows = [f"{a}   |   {b}" for a, b in zip(left_lines, right_lines)]
    footer = f"shared scale: min={lo:.3f} max={hi:.3f}"
    return "\n".join([header, *rows, footer])


def render_path_overlay(
    landscape: Landscape,
    path: np.ndarray,
    max_rows: int = 24,
    max_cols: int = 60,
    title: str | None = None,
) -> str:
    """Heatmap with an optimizer path overlaid.

    Path points are drawn as ``o``, the start as ``S``, the end as ``E``
    (the Fig. 2(B) bird's-eye view).
    """
    if landscape.grid.ndim != 2:
        raise ValueError("path overlay requires a 2-D landscape")
    values = landscape.values
    sampled = _downsample(values, max_rows, max_cols)
    lo, hi = float(values.min()), float(values.max())
    lines = [list(row) for row in _to_characters(sampled, lo, hi)]
    rows, cols = sampled.shape
    beta_axis, gamma_axis = landscape.grid.axis_values
    for rank, point in enumerate(np.atleast_2d(path)):
        row_fraction = (point[0] - beta_axis[0]) / max(beta_axis[-1] - beta_axis[0], 1e-12)
        col_fraction = (point[1] - gamma_axis[0]) / max(gamma_axis[-1] - gamma_axis[0], 1e-12)
        row = int(np.clip(row_fraction * (rows - 1), 0, rows - 1))
        col = int(np.clip(col_fraction * (cols - 1), 0, cols - 1))
        if rank == 0:
            marker = "S"
        elif rank == len(path) - 1:
            marker = "E"
        else:
            marker = "o"
        lines[row][col] = marker
    header = title or f"{landscape.label} (S=start, E=end)"
    body = "\n".join("".join(row) for row in lines)
    return f"{header}\n{body}"
