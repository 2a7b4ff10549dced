"""Terminal visualisation (ASCII heatmaps and path overlays)."""

from .ascii import render_path_overlay, render_side_by_side

__all__ = ["render_path_overlay", "render_side_by_side"]
