"""Clifford Data Regression (CDR) noise mitigation.

CDR (Czarnik et al., Quantum 5, 592 (2021)) — one of the mitigation
families the paper's Sec. 2.3 catalogues — learns the map from noisy to
exact expectation values on *near-Clifford training circuits* (cheap to
simulate classically even at scale) and applies the learned map to the
circuit of interest:

1. build training circuits resembling the target but with parameters
   snapped to Clifford angles (multiples of pi/2 for our RZZ/RX gates,
   where the rotations become Clifford gates);
2. evaluate each training circuit both noisily (device) and exactly
   (classical Clifford-capable simulation — here, our statevector
   engine, since training circuits stay small);
3. fit ``exact ~ a * noisy + b`` by least squares;
4. mitigate the target circuit's noisy value through the fitted map.

For depolarizing-dominated noise the true relationship *is* affine, so
CDR is extremely effective — which our benchmark against ZNE shows.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..ansatz.base import Ansatz
from ..quantum.noise import NoiseModel
from ..utils import ensure_rng

__all__ = [
    "CdrConfig",
    "CdrCostFunction",
    "CliffordDataRegression",
    "snap_to_clifford_angles",
    "cdr_cost_function",
]


def snap_to_clifford_angles(
    parameters: np.ndarray, rng: np.random.Generator, keep_fraction: float = 0.0
) -> np.ndarray:
    """Project parameters onto the nearest Clifford angles.

    QAOA's RZZ(2*gamma*w) and RX(2*beta) gates are Clifford when their
    angles are multiples of pi/2, i.e. when the *parameters* sit on the
    pi/4 lattice.  ``keep_fraction`` optionally leaves a random subset
    of parameters untouched (the "near-Clifford" variant that improves
    training diversity).
    """
    parameters = np.asarray(parameters, dtype=float)
    snapped = np.round(parameters / (np.pi / 4.0)) * (np.pi / 4.0)
    if keep_fraction > 0.0:
        keep = rng.random(parameters.shape) < keep_fraction
        snapped = np.where(keep, parameters, snapped)
    return snapped


@dataclass(frozen=True)
class CdrConfig:
    """CDR knobs.

    Each training circuit offsets the target's parameters by a normal
    draw of standard deviation 0.5, so the training set spans the
    target's neighbourhood, then snaps them to Clifford angles but
    leaves a random quarter of them untouched.  Strictly Clifford QAOA
    angles (beta on the pi/4 lattice) collapse many training values onto
    the landscape mean, degenerating the regression, so the training
    circuits are near-Clifford.

    Attributes:
        num_training_circuits: training-set size (paper-family default 10).
    """

    num_training_circuits: int = 10

    def __post_init__(self) -> None:
        if self.num_training_circuits < 2:
            raise ValueError("CDR needs at least two training circuits")


class CliffordDataRegression:
    """Learns and applies the noisy -> exact expectation map."""

    def __init__(self, ansatz: Ansatz, noise: NoiseModel, config: CdrConfig | None = None):
        self.ansatz = ansatz
        self.noise = noise
        self.config = config or CdrConfig()
        self._coefficients: np.ndarray | None = None

    @property
    def coefficients(self) -> tuple[float, float]:
        """The fitted ``(slope, intercept)``."""
        if self._coefficients is None:
            raise RuntimeError("CDR model has not been trained")
        return float(self._coefficients[0]), float(self._coefficients[1])

    def training_set(
        self, around: np.ndarray, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Near-Clifford parameter vectors around the target point."""
        around = np.asarray(around, dtype=float)
        circuits = []
        for _ in range(self.config.num_training_circuits):
            jittered = around + rng.normal(0.0, 0.5, around.shape)
            circuits.append(snap_to_clifford_angles(jittered, rng, 0.25))
        return circuits

    def train(
        self,
        around: np.ndarray,
        rng: np.random.Generator | None = None,
        shots: int | None = None,
    ) -> "CliffordDataRegression":
        """Fit the regression on training circuits near ``around``."""
        rng = ensure_rng(rng)
        noisy_values = []
        exact_values = []
        for parameters in self.training_set(around, rng):
            noisy_values.append(
                self.ansatz.expectation(
                    parameters, noise=self.noise, shots=shots, rng=rng
                )
            )
            exact_values.append(self.ansatz.expectation(parameters))
        noisy = np.asarray(noisy_values)
        exact = np.asarray(exact_values)
        if np.ptp(noisy) < 1e-12:
            # Degenerate training set (all Clifford values equal):
            # fall back to a pure offset correction.
            self._coefficients = np.array([1.0, float(np.mean(exact - noisy))])
        else:
            self._coefficients = np.polyfit(noisy, exact, deg=1)
        return self

    def mitigate(self, noisy_value: float) -> float:
        """Apply the learned map to a noisy expectation value."""
        if self._coefficients is None:
            raise RuntimeError("CDR model has not been trained")
        return float(np.polyval(self._coefficients, noisy_value))

    def mitigate_many(self, noisy_values: np.ndarray) -> np.ndarray:
        """Apply the learned map to a whole array of noisy values."""
        if self._coefficients is None:
            raise RuntimeError("CDR model has not been trained")
        return np.polyval(
            self._coefficients, np.asarray(noisy_values, dtype=float)
        )

    def mitigated_expectation(
        self,
        parameters: np.ndarray,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Noisy evaluation followed by the learned correction."""
        noisy = self.ansatz.expectation(
            parameters, noise=self.noise, shots=shots, rng=rng
        )
        return self.mitigate(noisy)


class CdrCostFunction:
    """A trained CDR model bound into a batch-capable cost function.

    Calling it mitigates one point; :meth:`many` evaluates a whole
    chunk through the ansatz's vectorized ``expectation_many`` (rows
    consume the shared rng in batch order, matching the serial loop)
    and applies the learned affine map in one ``polyval``.
    """

    def __init__(
        self,
        model: CliffordDataRegression,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.model = model
        self.shots = shots
        self.rng = rng

    @property
    def num_qubits(self) -> int:
        """Width of the underlying circuit (drives batch sizing)."""
        return self.model.ansatz.num_qubits

    def batch_capacity(self) -> int:
        """Memory-capped execution rows per chunk (noise-engine aware).

        Every production query runs under the trained noise model, so
        density-engine ansatzes report the ``4**n``-per-row budget.
        """
        return self.model.ansatz.batch_capacity(self.model.noise)

    def __call__(self, parameters: np.ndarray) -> float:
        """CDR-mitigated cost at one parameter point."""
        return self.model.mitigated_expectation(
            parameters, shots=self.shots, rng=self.rng
        )

    def many(self, parameters_batch: np.ndarray) -> np.ndarray:
        """CDR-mitigated cost values for an ``(m, ndim)`` point batch."""
        noisy = self.model.ansatz.expectation_many(
            np.asarray(parameters_batch, dtype=float),
            noise=self.model.noise,
            shots=self.shots,
            rng=self.rng,
        )
        return self.model.mitigate_many(noisy)


def cdr_cost_function(
    ansatz: Ansatz,
    noise: NoiseModel,
    train_around: np.ndarray,
    config: CdrConfig | None = None,
    shots: int | None = None,
    training_shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> CdrCostFunction:
    """A drop-in mitigated cost callable (trains once, reuses the map).

    Training circuits are shared across all queries — CDR's key cost
    advantage over ZNE, which pays its overhead at *every* point.  The
    returned :class:`CdrCostFunction` is batch-capable, so mitigated
    landscapes ride the vectorized execution backend.

    Args:
        shots: shot budget per production query.
        training_shots: shot budget per training circuit; defaults to
            ``shots``.  Shot noise on the regression inputs attenuates
            the fitted slope (errors-in-variables bias), so investing
            extra shots in the small, amortised training set pays off.
    """
    rng = ensure_rng(rng)
    model = CliffordDataRegression(ansatz, noise, config)
    model.train(
        np.asarray(train_around, dtype=float),
        rng=rng,
        shots=training_shots if training_shots is not None else shots,
    )
    return CdrCostFunction(model, shots=shots, rng=rng)
