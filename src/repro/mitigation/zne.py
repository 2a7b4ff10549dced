"""Zero-Noise Extrapolation (ZNE).

ZNE estimates the noiseless expectation value by measuring at several
amplified noise levels and extrapolating back to zero noise (Li &
Benjamin 2017; Temme et al. 2017).  Noise is amplified by
**error-rate scaling**: the depolarizing probabilities of the noise
model are multiplied by each scale factor
(:meth:`repro.quantum.noise.NoiseModel.scaled`).  For small
depolarizing rates this is equivalent to unitary folding ``U -> U
(U^dag U)^k`` and much cheaper to simulate;
:meth:`repro.quantum.circuit.QuantumCircuit.folded` is the oracle the
test suite checks that equivalence against.

Extrapolation models (the paper's configuration knob, Sec. 6):

- **Richardson** — exact polynomial extrapolation through all points
  (Lagrange at zero).  With scales {1,2,3} the estimator weights are
  [3, -3, 1], amplifying statistical noise by ``sqrt(19) ~ 4.4x`` —
  the "salt-like" jaggedness of Fig. 9(A);
- **linear** — least-squares line, intercept at zero; with scales
  {1,3} the weights are [1.5, -0.5] (amplification ``~1.6x``), hence
  the smoother Fig. 9(B).

Execution is batch-capable: :class:`ZneCostFunction` folds the scale
factors into the execution batch axis (one ``expectation_many`` call
with a per-row noise sequence per chunk, then one vectorized
extrapolation), so mitigated landscape grids ride the same vectorized
backend as unmitigated ones instead of a per-(point, scale) loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..quantum.noise import NoiseModel
from ..utils import ensure_rng

__all__ = [
    "richardson_extrapolate",
    "linear_extrapolate",
    "extrapolate",
    "extrapolate_many",
    "ZneConfig",
    "ZneCostFunction",
    "zne_expectation",
    "zne_cost_function",
]


def _richardson_weights(scales: np.ndarray) -> np.ndarray:
    """Lagrange-at-zero weights ``c_i = prod_{j != i} s_j / (s_j - s_i)``."""
    scales = np.asarray(scales, dtype=float)
    if scales.size < 2:
        raise ValueError("need at least two scale factors")
    if len(np.unique(scales)) != scales.size:
        raise ValueError("scale factors must be distinct")
    weights = np.empty(scales.size)
    for i in range(scales.size):
        weight = 1.0
        for j in range(scales.size):
            if j == i:
                continue
            weight *= scales[j] / (scales[j] - scales[i])
        weights[i] = weight
    return weights


def richardson_extrapolate(scales: np.ndarray, values: np.ndarray) -> float:
    """Lagrange polynomial through all (scale, value) pairs, at zero.

    The Richardson estimate is ``sum_i c_i y_i`` with
    ``c_i = prod_{j != i} s_j / (s_j - s_i)``.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.shape != values.shape or scales.size < 2:
        raise ValueError("need matching scales/values with at least two points")
    return float(np.dot(_richardson_weights(scales), values))


def linear_extrapolate(scales: np.ndarray, values: np.ndarray) -> float:
    """Least-squares line through the points, evaluated at scale zero."""
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.shape != values.shape or scales.size < 2:
        raise ValueError("need matching scales/values with at least two points")
    slope, intercept = np.polyfit(scales, values, deg=1)
    del slope
    return float(intercept)


_EXTRAPOLATORS: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "richardson": richardson_extrapolate,
    "linear": linear_extrapolate,
}


def extrapolate(method: str, scales: Sequence[float], values: Sequence[float]) -> float:
    """Dispatch to a named extrapolation model."""
    if method not in _EXTRAPOLATORS:
        raise ValueError(
            f"unknown extrapolation method {method!r}; "
            f"choose from {sorted(_EXTRAPOLATORS)}"
        )
    return _EXTRAPOLATORS[method](np.asarray(scales, float), np.asarray(values, float))


def extrapolate_many(
    method: str, scales: Sequence[float], values: np.ndarray
) -> np.ndarray:
    """Row-wise :func:`extrapolate` over an ``(m, num_scales)`` matrix.

    Richardson is one matrix-vector product with the shared Lagrange
    weights, linear is one shared least-squares fit over all rows
    (``np.polyfit`` accepts a 2-D ordinate).  Each row equals the
    scalar :func:`extrapolate` on that row to machine precision.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != scales.size:
        raise ValueError(
            f"values must be (m, {scales.size}) for {scales.size} scales, "
            f"got {values.shape}"
        )
    if method == "richardson":
        return values @ _richardson_weights(scales)
    if method == "linear":
        return np.polyfit(scales, values.T, deg=1)[1]
    raise ValueError(
        f"unknown extrapolation method {method!r}; "
        f"choose from {sorted(_EXTRAPOLATORS)}"
    )


@dataclass(frozen=True)
class ZneConfig:
    """A ZNE configuration: scaling factors plus extrapolation model.

    The paper's two reference configurations are
    ``ZneConfig((1, 2, 3), "richardson")`` and ``ZneConfig((1, 3), "linear")``.
    """

    scale_factors: tuple[float, ...] = (1.0, 2.0, 3.0)
    method: str = "richardson"

    def __post_init__(self) -> None:
        if len(self.scale_factors) < 2:
            raise ValueError("ZNE needs at least two scale factors")
        if len(set(self.scale_factors)) != len(self.scale_factors):
            raise ValueError("scale factors must be distinct")
        if any(scale < 1.0 for scale in self.scale_factors):
            raise ValueError("scale factors must be >= 1")
        if self.method not in _EXTRAPOLATORS:
            raise ValueError(f"unknown extrapolation method {self.method!r}")


def zne_expectation(
    ansatz: Ansatz,
    parameters: np.ndarray,
    noise: NoiseModel,
    config: ZneConfig | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """ZNE-mitigated expectation via error-rate scaling.

    Evaluates the ansatz at every noise scale in the configuration and
    extrapolates to zero.  With ``shots`` set, each scale's estimate
    carries independent shot noise, which the extrapolation amplifies
    by the L2 norm of its weights (``sqrt(19)`` for Richardson at
    scales 1, 2, 3) — the mechanism behind the Richardson-vs-linear
    roughness contrast the paper studies.
    """
    config = config or ZneConfig()
    rng = ensure_rng(rng)
    values = [
        ansatz.expectation(
            parameters, noise=noise.scaled(scale), shots=shots, rng=rng
        )
        for scale in config.scale_factors
    ]
    return extrapolate(config.method, config.scale_factors, values)


class ZneCostFunction:
    """A batch-capable cost function with ZNE applied at every query.

    Drop-in replacement for
    :class:`repro.landscape.generator.AnsatzCostFunction`: calling it
    evaluates one point through :func:`zne_expectation`, while
    :meth:`many` folds the noise scale factors into the batch axis —
    an ``(m, ndim)`` chunk becomes one ``(m * num_scales, ndim)``
    ``expectation_many`` call with a per-row noise sequence, followed by
    one vectorized extrapolation.  Rows are ordered point-major /
    scale-minor, exactly the order the serial loop evaluates them, so
    seeded shot-noise draws match the serial path draw for draw.

    :attr:`rows_per_point` advertises the fold factor so the landscape
    layer can shrink its per-chunk point count to keep the folded batch
    inside the execution backend's cache budget.
    """

    def __init__(
        self,
        ansatz: Ansatz,
        noise: NoiseModel,
        config: ZneConfig | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.ansatz = ansatz
        self.noise = noise
        self.config = config or ZneConfig()
        self.shots = shots
        self.rng = rng
        self._scaled = [
            noise.scaled(scale) for scale in self.config.scale_factors
        ]

    @property
    def num_qubits(self) -> int:
        """Width of the underlying circuit (drives batch sizing)."""
        return self.ansatz.num_qubits

    @property
    def rows_per_point(self) -> int:
        """Execution-batch rows consumed per landscape point."""
        return len(self.config.scale_factors)

    def batch_capacity(self) -> int:
        """Memory-capped execution rows per chunk (noise-engine aware).

        Evaluated against the *scaled* noise models the fold actually
        executes, so density-engine ansatzes report the ``4**n``-per-row
        budget; :func:`repro.landscape.generator.resolve_batch_size`
        further divides by :attr:`rows_per_point`.
        """
        return self.ansatz.batch_capacity(self._scaled)

    def __call__(self, parameters: np.ndarray) -> float:
        """ZNE-mitigated cost at one parameter point."""
        return zne_expectation(
            self.ansatz, parameters, self.noise, self.config, self.shots, self.rng
        )

    def many(self, parameters_batch: np.ndarray) -> np.ndarray:
        """ZNE-mitigated cost values for an ``(m, ndim)`` point batch.

        Ansatzes with a scale-reuse fast path
        (:meth:`~repro.ansatz.qaoa.QaoaAnsatz.expectation_many_scaled`)
        simulate each point *once* and reuse the noise-scale-independent
        ideal state across all scale factors — an ``S``-fold simulation
        saving on the analytic-contraction engine.  Everything else
        takes the generic fold: one ``expectation_many`` call on the
        ``(m * S, ndim)`` row expansion with a per-row noise sequence.
        Both orders are point-major / scale-minor, matching the serial
        loop draw for draw.
        """
        points = np.asarray(parameters_batch, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        num_points = points.shape[0]
        num_scales = len(self._scaled)
        scaled_many = getattr(self.ansatz, "expectation_many_scaled", None)
        if scaled_many is not None:
            values = scaled_many(
                points, self._scaled, shots=self.shots, rng=self.rng
            )
        else:
            folded = np.repeat(points, num_scales, axis=0)
            values = self.ansatz.expectation_many(
                folded,
                noise=self._scaled * num_points,
                shots=self.shots,
                rng=self.rng,
            ).reshape(num_points, num_scales)
        return extrapolate_many(
            self.config.method, self.config.scale_factors, values
        )

    def cache_spec(self) -> dict:
        """Canonical content description for the landscape store."""
        return {
            "kind": "zne",
            "ansatz": self.ansatz.cache_spec(),
            "noise": self.noise.cache_spec(),
            "shots": self.shots,
            "mitigation": {
                "method": self.config.method,
                "scale_factors": [
                    float(scale) for scale in self.config.scale_factors
                ],
            },
        }


def zne_cost_function(
    ansatz: Ansatz,
    noise: NoiseModel,
    config: ZneConfig | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> ZneCostFunction:
    """A batch-capable cost callable with ZNE applied at every query.

    Drop-in replacement for
    :func:`repro.landscape.generator.cost_function`, so mitigated
    landscapes are produced by the same grid/OSCAR machinery — batched
    chunks included (see :class:`ZneCostFunction`).
    """
    return ZneCostFunction(ansatz, noise, config, shots=shots, rng=rng)
