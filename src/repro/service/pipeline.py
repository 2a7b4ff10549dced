"""The one-request OSCAR pipeline: sample → reconstruct → optimize.

This module is the *shared implementation* behind the daemon's
``pipeline`` op and the client-side fallback: both call
:func:`run_pipeline` with the same :class:`PipelineConfig`, so a
pipeline served over the socket and one composed locally execute the
exact same code path — which is why the returned optimizer trajectory
is bit-identical between the two under the parity rng regime (gated in
``benchmarks/test_sparse_service.py``).

The stages map onto the paper's workflow (Fig. 3 + the Sec. 7/8
optimizer use cases):

1. **sample** — draw a random index subset via
   :class:`~repro.landscape.reconstructor.OscarReconstructor`'s sampler
   (``uniform`` / ``stratified``);
2. **evaluate** — cost values at those indices.  Locally this is
   :meth:`~repro.landscape.generator.LandscapeGenerator.local_evaluate_indices`;
   the daemon injects its own sparse path here (warm pool + store
   read-through) via the ``evaluate`` hook;
3. **reconstruct** — the batched FISTA engine
   (:class:`~repro.cs.engine.ReconstructionEngine`, via
   ``reconstruct_many`` with a one-problem stack);
4. **optimize** — a registry optimizer
   (:func:`~repro.optimizers.make_optimizer`) minimizing the
   interpolated reconstruction
   (:class:`~repro.landscape.interpolate.InterpolatedLandscape`),
   starting from the reconstruction's grid minimum unless the config
   pins an initial point.

Every stage is timed (``PipelineOutcome.timings``); the daemon returns
those server-side timings so the transport-overhead gate can compare
request wall clock against the sum of the actual work.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..cs.reconstruct import ReconstructionConfig
from ..landscape.interpolate import InterpolatedLandscape
from ..landscape.landscape import Landscape
from ..landscape.reconstructor import OscarReconstructor, ReconstructionReport
from ..optimizers import OptimizationResult, make_optimizer
from ..utils import ensure_rng, is_finite_real
from .protocol import decode_array, decode_landscape, encode_array, encode_landscape

__all__ = ["PipelineConfig", "PipelineOutcome", "run_pipeline"]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the pipeline needs beyond the generator itself.

    Attributes:
        fraction: sampling fraction in (0, 1].
        sampler: index sampler, ``"uniform"`` or ``"stratified"``.
        reconstruction: CS solver knobs (``None`` = paper defaults).
        optimizer: registry name (see
            :func:`~repro.optimizers.available_optimizers`).
        optimizer_options: constructor kwargs for the optimizer
            (``maxiter``, ``tolerance``, ...).  The optimizer is built
            when the config is, so an unknown optimizer, an unknown
            keyword or a non-mapping raises ``ValueError`` before any
            circuit runs.
        initial_point: optimizer start, a list or tuple of finite
            numbers (stored as a tuple of floats), one per grid axis
            (:func:`check_initial_point`); ``None`` starts from the
            reconstructed landscape's grid minimum (the OSCAR
            initialization idiom).
        label: provenance tag for the reconstructed landscape.
    """

    fraction: float
    sampler: str = "uniform"
    reconstruction: ReconstructionConfig | None = None
    optimizer: str = "cobyla"
    optimizer_options: Mapping[str, Any] | None = None
    initial_point: tuple[float, ...] | None = None
    label: str = "oscar-pipeline"

    def __post_init__(self) -> None:
        if isinstance(self.fraction, bool) or not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be a number in (0, 1], got {self.fraction!r}"
            )
        samplers = OscarReconstructor.SAMPLERS
        if self.sampler not in samplers:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; choose from {samplers}"
            )
        for name in ("optimizer", "label"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        options = self.optimizer_options
        if options is not None and not isinstance(options, Mapping):
            raise ValueError(
                f"optimizer_options must be a mapping, got {type(options).__name__}"
            )
        try:
            optimizer = make_optimizer(self.optimizer, **dict(options or {}))
        except TypeError as error:
            raise ValueError(f"invalid optimizer_options: {error}") from None
        object.__setattr__(self, "_optimizer", optimizer)
        point = self.initial_point
        if point is not None:
            if not isinstance(point, (list, tuple)) or not all(
                map(is_finite_real, point)
            ):
                raise ValueError(
                    f"initial_point must be a list of finite numbers, got {point!r}"
                )
            object.__setattr__(self, "initial_point", tuple(float(x) for x in point))


@dataclass
class PipelineOutcome:
    """Everything one pipeline run produced.

    Attributes:
        landscape: the reconstructed landscape.
        report: reconstruction diagnostics (samples, speedup, solver).
        optimization: the full optimizer trajectory on the interpolated
            reconstruction.
        flat_indices: sampled flat grid indices (request order).
        values: measured cost values aligned with ``flat_indices``.
        timings: per-stage wall seconds (``sample`` / ``evaluate`` /
            ``reconstruct`` / ``optimize``).
        key: the daemon store key the reconstruction was cached under,
            or ``None`` (no store, or a non-reproducible request).
        served_by: ``"local"`` or ``"daemon"`` (set by the client).
    """

    landscape: Landscape
    report: ReconstructionReport
    optimization: OptimizationResult
    flat_indices: np.ndarray
    values: np.ndarray
    timings: dict[str, float] = field(default_factory=dict)
    key: str | None = None
    served_by: str = "local"

    @property
    def total_stage_seconds(self) -> float:
        """Sum of the recorded per-stage timings."""
        return float(sum(self.timings.values()))


def check_initial_point(config: PipelineConfig, grid) -> None:
    """Refuse an ``initial_point`` without one coordinate per grid axis;
    :func:`run_pipeline` and the daemon's config check both call this."""
    point = config.initial_point
    if point is not None and len(point) != grid.ndim:
        raise ValueError(
            f"initial_point has {len(point)} coordinates for a "
            f"{grid.ndim}-D grid"
        )


def run_pipeline(
    generator,
    config: PipelineConfig,
    sample_rng: np.random.Generator | int | None = None,
    evaluate: Callable[[np.ndarray], np.ndarray] | None = None,
) -> PipelineOutcome:
    """Execute the full OSCAR loop against a landscape generator.

    Args:
        generator: a :class:`~repro.landscape.generator.LandscapeGenerator`
            (its ``daemon=`` setting is ignored here — daemon routing
            happens one level up in ``LandscapeGenerator.run_pipeline``).
        config: the pipeline configuration.
        sample_rng: generator or seed for index sampling.  Pass an int
            for a reproducible (and daemon-cacheable) sample set.
        evaluate: override for the evaluation stage; the daemon injects
            its sparse service path (read-through + counters) here.
            Defaults to the generator's local index evaluation.
    """
    check_initial_point(config, generator.grid)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    reconstructor = OscarReconstructor(
        generator.grid,
        config=config.reconstruction,
        sampler=config.sampler,
        rng=ensure_rng(sample_rng),
    )
    flat_indices = reconstructor.sample_indices(config.fraction)
    timings["sample"] = time.perf_counter() - start

    start = time.perf_counter()
    if evaluate is None:
        evaluate = generator.local_evaluate_indices
    values = np.asarray(evaluate(flat_indices), dtype=float)
    timings["evaluate"] = time.perf_counter() - start

    start = time.perf_counter()
    ((landscape, report),) = reconstructor.reconstruct_many(
        [(flat_indices, values)], labels=[config.label]
    )
    timings["reconstruct"] = time.perf_counter() - start

    start = time.perf_counter()
    surrogate = InterpolatedLandscape(landscape)
    if config.initial_point is not None:
        initial_point = np.asarray(config.initial_point, dtype=float)
    else:
        initial_point = landscape.minimum()[1]
    # A fresh copy per run, so a seeded SPSA replays the same draws each
    # time the config runs.
    optimizer = copy.deepcopy(config._optimizer)
    optimization = optimizer.minimize(surrogate, initial_point)
    timings["optimize"] = time.perf_counter() - start

    return PipelineOutcome(
        landscape=landscape,
        report=report,
        optimization=optimization,
        flat_indices=flat_indices,
        values=values,
        timings=timings,
    )


def encode_outcome(outcome: PipelineOutcome) -> dict[str, Any]:
    """A pipeline outcome as wire fields (the daemon adds its ``key`` and
    rng states); :func:`decode_outcome` is the client's inverse."""
    optimization = asdict(outcome.optimization)
    return {
        "landscape": encode_landscape(outcome.landscape),
        "report": asdict(outcome.report),
        "optimization": {
            **optimization,
            "parameters": encode_array(optimization["parameters"]),
            "path": encode_array(optimization["path"]),
        },
        "flat_indices": encode_array(outcome.flat_indices.astype(np.int64)),
        "values": encode_array(outcome.values),
        "timings": outcome.timings,
    }


def decode_outcome(response: Mapping[str, Any]) -> PipelineOutcome:
    """The outcome a daemon served, from its ``pipeline`` response."""
    optimization = response["optimization"]
    return PipelineOutcome(
        landscape=decode_landscape(response["landscape"]),
        report=ReconstructionReport(**response["report"]),
        optimization=OptimizationResult(
            **{
                **optimization,
                "parameters": decode_array(optimization["parameters"]),
                "path": decode_array(optimization["path"]),
            }
        ),
        flat_indices=decode_array(response["flat_indices"]),
        values=decode_array(response["values"]),
        timings=dict(response["timings"]),
        key=response.get("key"),
        served_by="daemon",
    )


def pipeline_spec(generator, config: PipelineConfig, sample_seed: int):
    """The store spec a reproducible pipeline reconstruction caches under.

    Only defined when the whole run is content-addressable: the sample
    set must come from an integer seed and the evaluation must be
    deterministic (exact, or seeded shot noise — the same rule as dense
    landscapes).  Callers catch ``TypeError`` / ``ValueError`` from the
    underlying :meth:`~repro.landscape.generator.LandscapeGenerator.cache_spec`
    to mean "not cacheable".
    """
    from .store import LandscapeSpec

    dense_spec = generator.cache_spec()
    reconstruction = config.reconstruction or ReconstructionConfig()
    content = {
        "kind": "oscar-pipeline",
        "dense": dense_spec.payload(),
        "sampler": config.sampler,
        "fraction": float(config.fraction),
        "sample_seed": int(sample_seed),
        # Every existing key was computed with these two FISTA fields
        # (since removed) at these values; hashing them keeps the keys.
        "reconstruction": {
            **asdict(reconstruction), "adaptive_restart": False, "lipschitz": 1.0
        },
    }
    return LandscapeSpec.from_parts(
        content,
        generator.grid,
        shots=getattr(generator.function, "shots", None),
        execution=dense_spec.execution,
    )
