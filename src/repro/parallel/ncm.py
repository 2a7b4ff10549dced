"""Noise Compensation Model (NCM).

When OSCAR samples a landscape on several devices at once, the
reconstruction mixes the devices' noise profiles and masks
hardware-specific effects (Sec. 5.1).  The NCM fixes this: train a
linear regression mapping expected values obtained on QPU-2 to the
values QPU-1 would have produced for the same circuit parameters, then
transform all QPU-2 samples before reconstruction.

A 1-D affine map ``y1 ~ a * y2 + b`` is exactly the right model for
depolarizing-dominated noise: a global depolarizing channel contracts
the traceless part of every expectation by a device-dependent factor
and shifts by the device-dependent mean, which is precisely an affine
relation between two devices' landscapes.  A quadratic option is
provided for the model-order ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseCompensationModel"]


@dataclass
class NoiseCompensationModel:
    """Polynomial regression from one device's values to another's.

    Attributes:
        degree: polynomial degree (1 = the paper's linear model).
    """

    degree: int = 1

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        self._coefficients: np.ndarray | None = None

    @property
    def coefficients(self) -> np.ndarray:
        """Fitted polynomial coefficients (highest degree first)."""
        if self._coefficients is None:
            raise RuntimeError("NCM has not been trained")
        return self._coefficients.copy()

    def train(
        self, source_values: np.ndarray, target_values: np.ndarray
    ) -> "NoiseCompensationModel":
        """Fit the map from source-device to target-device values.

        Args:
            source_values: expectations measured on the device to be
                transformed (QPU-2).
            target_values: expectations measured on the reference device
                (QPU-1) *for the same circuit parameters*.
        """
        source = np.asarray(source_values, dtype=float).reshape(-1)
        target = np.asarray(target_values, dtype=float).reshape(-1)
        if source.shape != target.shape:
            raise ValueError("source/target training sets must align")
        if source.size < self.degree + 1:
            raise ValueError(
                f"need at least {self.degree + 1} training pairs for "
                f"degree {self.degree}"
            )
        if np.ptp(source) == 0.0:
            # Degenerate constant source: map everything to target mean.
            self._coefficients = np.zeros(self.degree + 1)
            self._coefficients[-1] = float(np.mean(target))
        else:
            self._coefficients = np.polyfit(source, target, deg=self.degree)
        return self

    def transform(self, source_values: np.ndarray) -> np.ndarray:
        """Map source-device values into the reference device's frame."""
        if self._coefficients is None:
            raise RuntimeError("NCM must be trained before transforming")
        source = np.asarray(source_values, dtype=float)
        return np.polyval(self._coefficients, source)

    def training_residual(
        self, source_values: np.ndarray, target_values: np.ndarray
    ) -> float:
        """RMS residual of the fit on a (source, target) pair set."""
        predicted = self.transform(source_values)
        target = np.asarray(target_values, dtype=float)
        return float(np.sqrt(np.mean((predicted - target) ** 2)))
