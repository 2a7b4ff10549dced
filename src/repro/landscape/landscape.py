"""The :class:`Landscape` container.

A landscape is a dense array of cost values over a
:class:`~repro.landscape.grid.ParameterGrid`, plus provenance metadata
(how it was produced, at what cost).  It is the unit every other part
of the library exchanges: generators produce it, OSCAR reconstructs it,
metrics/interpolation/optimizers consume it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .grid import GridAxis, ParameterGrid

__all__ = ["Landscape"]


@dataclass
class Landscape:
    """Dense cost values over a parameter grid.

    Attributes:
        grid: the parameter grid the values live on.
        values: cost array with shape ``grid.shape``.
        label: provenance tag ("ground-truth", "oscar-recon", ...).
        circuit_executions: number of circuit evaluations spent
            producing it (grid size for grid search, sample count for
            OSCAR) — the paper's speedup metric is a ratio of these.
    """

    grid: ParameterGrid
    values: np.ndarray
    label: str = "landscape"
    circuit_executions: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}"
            )

    # -- views -------------------------------------------------------------

    def flat(self) -> np.ndarray:
        """Row-major flattened values."""
        return self.values.reshape(-1)

    def reshaped_2d(self) -> np.ndarray:
        """Values under the paper's high-dim -> 2-D concatenation."""
        return self.values.reshape(self.grid.reshaped_2d_shape())

    def minimum(self) -> tuple[float, np.ndarray]:
        """``(min value, parameter vector at the minimum grid point)``."""
        flat_index = int(np.argmin(self.values))
        return float(self.flat()[flat_index]), self.grid.point_from_flat(flat_index)

    def value_at(self, parameters: np.ndarray) -> float:
        """Value at the nearest grid point to a parameter vector."""
        return float(self.flat()[self.grid.nearest_flat_index(parameters)])

    # -- persistence ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to compressed ``.npz`` bytes (values + axis
        definitions + metadata).

        The one landscape codec: the store writes these bytes as an
        entry's payload file and the daemon ships them (base64) on the
        wire, so a served landscape and a stored landscape are the same
        artifact.
        """
        axes = self.grid.axes
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            values=self.values,
            axis_names=np.array([axis.name for axis in axes]),
            axis_lows=np.array([axis.low for axis in axes]),
            axis_highs=np.array([axis.high for axis in axes]),
            axis_points=np.array([axis.num_points for axis in axes]),
            label=np.array(self.label),
            circuit_executions=np.array(self.circuit_executions),
        )
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Landscape":
        """Rebuild a landscape from :meth:`to_bytes` output."""
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            axes = [
                GridAxis(str(name), float(low), float(high), int(points))
                for name, low, high, points in zip(
                    data["axis_names"],
                    data["axis_lows"],
                    data["axis_highs"],
                    data["axis_points"],
                )
            ]
            return cls(
                ParameterGrid(axes),
                data["values"],
                label=str(data["label"]),
                circuit_executions=int(data["circuit_executions"]),
            )

    def with_values(self, values: np.ndarray, label: str | None = None) -> "Landscape":
        """A copy on the same grid with different values."""
        return Landscape(
            self.grid,
            values,
            label=label or self.label,
            circuit_executions=self.circuit_executions,
        )
