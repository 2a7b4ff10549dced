"""Landscape generation: grid search (ground truth) and point sampling.

:class:`LandscapeGenerator` evaluates a cost function over a
:class:`~repro.landscape.grid.ParameterGrid`.  The cost function is any
callable ``parameters -> float`` — typically an
:class:`AnsatzCostFunction` binding an :class:`~repro.ansatz.base.Ansatz`
to a fixed noise/shots setting, for which :func:`cost_function` is the
standard factory.

Grid search is what the paper calls the expensive baseline (5k-32k
circuit executions per landscape, Table 1); ``evaluate_indices`` is the
cheap path OSCAR uses (a few percent of the grid).

Execution is batched end to end: when the cost function exposes a
vectorized ``many(points) -> values`` path (every
:class:`AnsatzCostFunction` does, through
:meth:`~repro.ansatz.base.Ansatz.expectation_many`, as do the mitigated
cost functions :class:`~repro.mitigation.zne.ZneCostFunction` and
:class:`~repro.mitigation.cdr.CdrCostFunction`), grid points are
evaluated in memory-capped chunks (sized by :func:`resolve_batch_size`
from the cost function's qubit count, noise engine and
``rows_per_point``) instead of one Python-level call per point.  Plain
closures without a ``many`` attribute still work and fall back to the
point-at-a-time loop, so custom cost functions need no changes.

On top of the single-process engine sit the service knobs
(:mod:`repro.service`):

- ``workers=`` / ``seed=`` fan the evaluation out across a
  :class:`~repro.service.shards.ShardedExecutor` — contiguous grid
  shards, sized by the executor from the point count, on a
  multiprocessing pool, with per-shard ``SeedSequence.spawn``
  generators when ``seed`` is given so shot-noise results are
  bit-identical for any worker count;
- ``store=`` consults a content-addressed
  :class:`~repro.service.store.LandscapeStore` before running a grid
  search, so repeated requests for the same landscape are file loads;
- ``daemon=`` routes :meth:`LandscapeGenerator.grid_search` through a
  running :class:`~repro.service.daemon.LandscapeDaemon` (shared
  persistent pool + shared cache + request dedup), falling back to the
  in-process path when no daemon is listening.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..quantum.batched import default_batch_size
from ..quantum.noise import NoiseModel
from .grid import ParameterGrid, validate_flat_indices
from .landscape import Landscape

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service uses us)
    from ..service.store import LandscapeSpec, LandscapeStore

__all__ = [
    "AnsatzCostFunction",
    "LandscapeGenerator",
    "cost_function",
    "evaluate_points_chunked",
    "resolve_batch_size",
]

CostFunction = Callable[[np.ndarray], float]


def resolve_batch_size(function: CostFunction, batch_size: int | None) -> int:
    """Points per vectorized pass for a cost function.

    ``None`` asks the function itself via its ``batch_capacity()`` hook
    when it has one (every ansatz-backed cost function does — it is
    noise-engine aware, so noisy Two-local/UCCSD grids shrink to the
    density engine's ``4**n``-per-row budget), else falls back to the
    statevector default from the function's qubit count
    (:func:`~repro.quantum.batched.default_batch_size`).  Either
    capacity is divided by ``rows_per_point`` when each landscape point
    fans out into several execution rows (batched ZNE).  An explicit
    value always counts *points*.
    """
    if batch_size is not None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return int(batch_size)
    rows = max(1, int(getattr(function, "rows_per_point", 1)))
    capacity_hook = getattr(function, "batch_capacity", None)
    if capacity_hook is not None:
        capacity = int(capacity_hook())
    else:
        capacity = default_batch_size(getattr(function, "num_qubits", None))
    return max(1, capacity // rows)


def evaluate_points_chunked(
    function: CostFunction, points: np.ndarray, batch_size: int | None = None
) -> np.ndarray:
    """Cost values for ``(m, ndim)`` points, chunked through ``many``.

    The single-process evaluation core, shared by
    :class:`LandscapeGenerator` and the sharded executor's workers
    (each shard runs exactly this).  Functions without a ``many``
    attribute fall back to the point-at-a-time loop.  ``batch_size``
    pins the points per pass (the tests force chunk splits with it);
    ``None``, which every program path passes, lets
    :func:`resolve_batch_size` decide.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] == 0:
        return np.empty(0)
    many = getattr(function, "many", None)
    if many is None:
        return np.array([function(point) for point in points])
    chunk = resolve_batch_size(function, batch_size)
    return np.concatenate(
        [
            np.asarray(many(points[start : start + chunk]), dtype=float)
            for start in range(0, points.shape[0], chunk)
        ]
    )


class AnsatzCostFunction:
    """An ansatz bound to execution settings, callable point by point.

    Instances behave exactly like the closure :func:`cost_function` used
    to return (``function(parameters) -> float``) while additionally
    exposing:

    - :meth:`many` — the vectorized batch path, forwarding to
      :meth:`~repro.ansatz.base.Ansatz.expectation_many`;
    - :attr:`num_qubits` — so the landscape layer can pick a
      memory-capped default batch size;
    - :meth:`cache_spec` — the canonical content description the
      landscape store hashes into a cache key.
    """

    def __init__(
        self,
        ansatz: Ansatz,
        noise: NoiseModel | None = None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.ansatz = ansatz
        self.noise = noise
        self.shots = shots
        self.rng = rng

    @property
    def num_qubits(self) -> int:
        """Width of the underlying circuit (drives batch sizing)."""
        return self.ansatz.num_qubits

    def batch_capacity(self) -> int:
        """Memory-capped execution rows per chunk (noise-engine aware).

        Delegates to :meth:`~repro.ansatz.base.Ansatz.batch_capacity`,
        so noisy grids on density-engine ansatzes get the smaller
        ``4**n``-per-row chunking automatically.
        """
        return self.ansatz.batch_capacity(self.noise)

    def __call__(self, parameters: np.ndarray) -> float:
        """Cost value at one parameter point."""
        return self.ansatz.expectation(
            parameters, noise=self.noise, shots=self.shots, rng=self.rng
        )

    def many(self, parameters_batch: np.ndarray) -> np.ndarray:
        """Cost values for a ``(B, num_parameters)`` batch of points."""
        return self.ansatz.expectation_many(
            parameters_batch, noise=self.noise, shots=self.shots, rng=self.rng
        )

    def cache_spec(self) -> dict:
        """Canonical content description for the landscape store.

        Captures everything that determines exact values: the ansatz
        and problem content (:meth:`~repro.ansatz.base.Ansatz.cache_spec`),
        the noise model, and the shot budget.
        """
        return {
            "kind": "ansatz",
            "ansatz": self.ansatz.cache_spec(),
            "noise": _noise_spec(self.noise),
            "shots": self.shots,
        }


def _noise_spec(noise: NoiseModel | None) -> dict | None:
    """Canonical payload of a noise model (``None`` stays ``None``)."""
    return None if noise is None else noise.cache_spec()


def cost_function(
    ansatz: Ansatz,
    noise: NoiseModel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> AnsatzCostFunction:
    """Bind an ansatz and execution settings into a batch-capable callable."""
    return AnsatzCostFunction(ansatz, noise=noise, shots=shots, rng=rng)


class LandscapeGenerator:
    """Evaluates a cost function on grid points, batched where possible.

    Args:
        function: the cost function; if it exposes ``many(points)``
            (see :class:`AnsatzCostFunction`), evaluation is chunked
            through the vectorized path.
        grid: the parameter grid to evaluate on.  Chunk and shard
            sizes are the engine's own decision
            (:func:`resolve_batch_size`,
            :func:`~repro.service.shards.plan_shards`).
        workers: processes for sharded execution (``1`` = in-process).
            Once a pool is forked, this process and its workers run one
            BLAS thread (Linux only; see
            :func:`~repro.service.shards.create_pool` for the measured
            reason).
        seed: root seed for per-shard shot-noise generators.  Required
            for multiprocess shot noise and for caching shot-noise
            landscapes; makes seeded results bit-identical for any
            worker count.  Takes precedence over the cost function's
            bound ``rng`` when set.
        store: a :class:`~repro.service.store.LandscapeStore`;
            :meth:`grid_search` then serves repeated requests from the
            cache (see :meth:`cache_spec`).
        daemon: socket path or ``tcp://host:port`` target of a running
            :class:`~repro.service.daemon.LandscapeDaemon` (or a
            :class:`~repro.service.client.LandscapeClient`);
            :meth:`grid_search` is then served by the daemon — shared
            persistent pool, shared cache, concurrent identical
            requests computed once — and transparently falls back to
            this generator's own in-process path (honouring
            ``workers``/``store``) when no daemon is listening.  An
            authenticated ``tcp://`` daemon needs a client that carries
            its bearer token: ``LandscapeClient(target, token=...)``.
        executor_pool: an already-running ``multiprocessing`` pool the
            sharded executor should reuse instead of forking per call
            (how the daemon itself executes requests); the pool's
            lifetime belongs to the caller.

    Example — a dense grid search over a 4-qubit QAOA landscape::

        >>> from repro.ansatz import QaoaAnsatz
        >>> from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
        >>> from repro.problems import random_3_regular_maxcut
        >>> ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
        >>> generator = LandscapeGenerator(
        ...     cost_function(ansatz), qaoa_grid(p=1, resolution=(4, 8))
        ... )
        >>> landscape = generator.grid_search(label="demo")
        >>> landscape.values.shape
        (4, 8)
        >>> landscape.circuit_executions
        32
    """

    def __init__(
        self,
        function: CostFunction,
        grid: ParameterGrid,
        workers: int = 1,
        seed: int | None = None,
        store: "LandscapeStore | None" = None,
        daemon=None,
        executor_pool=None,
    ):
        self.function = function
        self.grid = grid
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.seed = None if seed is None else int(seed)
        self.store = store
        self.daemon = daemon
        self.executor_pool = executor_pool

    def _sharded(self) -> bool:
        """Whether evaluation routes through the sharded executor.

        Either service knob opts in: extra workers, or a root seed
        (which alone switches shot noise to the worker-count-independent
        per-shard seeding scheme).
        """
        return self.workers > 1 or self.seed is not None

    def _executor(self):
        from ..service.shards import ShardedExecutor

        return ShardedExecutor(
            workers=self.workers, seed=self.seed, pool=self.executor_pool
        )

    def _client(self):
        """The daemon client for ``daemon=`` (paths become clients)."""
        from ..service.client import LandscapeClient

        if isinstance(self.daemon, LandscapeClient):
            return self.daemon
        return LandscapeClient(self.daemon)

    def evaluate_points(self, points: np.ndarray) -> np.ndarray:
        """Cost values for an ``(m, ndim)`` array of parameter vectors.

        Uses the cost function's vectorized ``many`` path in
        memory-capped chunks when available, else loops; with the
        service knobs set, points are fanned out across contiguous
        shards first (see :class:`~repro.service.shards.ShardedExecutor`).
        """
        points = np.asarray(points, dtype=float)
        if points.shape[0] == 0:
            return np.empty(0)
        if self._sharded():
            return self._executor().run(self.function, points)
        return evaluate_points_chunked(self.function, points)

    def cache_spec(self) -> "LandscapeSpec":
        """The canonical spec :meth:`grid_search` is cached under.

        Requires a cost function that describes its content via
        ``cache_spec()`` (:class:`AnsatzCostFunction`,
        :class:`~repro.mitigation.zne.ZneCostFunction`).  Shot-noise
        landscapes additionally need ``seed=`` — their values depend on
        the rng plan, which the spec records as ``(seed, shard size)``;
        exact landscapes are execution-plan independent and share one
        key across worker counts.
        """
        from ..service.shards import plan_shards
        from ..service.store import LandscapeSpec

        describe = getattr(self.function, "cache_spec", None)
        if describe is None:
            raise TypeError(
                f"{type(self.function).__name__} does not describe itself "
                "for caching (no cache_spec method); the landscape store "
                "needs a content description to derive a key"
            )
        shots = getattr(self.function, "shots", None)
        execution = None
        if shots is not None:
            if self.seed is None:
                raise ValueError(
                    "caching a shot-noise landscape needs seed=: sampled "
                    "values depend on the rng plan, which an unseeded "
                    "generator cannot record in the cache key"
                )
            # The layout is derived from the grid size, and every existing
            # shot-noise key was computed with this layout; recording its
            # first-shard size keeps the keys.
            shards = plan_shards(self.grid.size)
            execution = {
                "seed": self.seed,
                "shard_points": shards[0].size if shards else 0,
            }
        return LandscapeSpec.from_parts(
            describe(), self.grid, shots=shots, execution=execution
        )

    def grid_search(self, label: str = "ground-truth") -> Landscape:
        """Dense evaluation of every grid point (the expensive baseline).

        With ``daemon=`` set, the request is served by the landscape
        daemon (its cache, its persistent pool, deduplicated against
        concurrent identical requests), falling back to the local path
        below when no daemon is listening.  With ``store=`` set, the
        store is consulted first: a hit is a file load (relabelled to
        ``label``), a miss computes and persists before returning.
        """
        if self.daemon is not None:
            return self._client().get_or_compute(
                self.function,
                self.grid,
                seed=self.seed,
                label=label,
                fallback=lambda: self.local_grid_search(label),
            )
        return self.local_grid_search(label)

    def local_grid_search(self, label: str = "ground-truth") -> Landscape:
        """The in-process :meth:`grid_search` path (ignores ``daemon=``).

        This is both the no-daemon fallback and what the daemon itself
        runs server-side; ``store=`` caching still applies.
        """
        if self.store is not None:
            landscape = self.store.get_or_compute(
                self.cache_spec(), lambda: self._grid_search(label)
            )
            if landscape.label != label:
                landscape = replace(landscape, label=label)
            return landscape
        return self._grid_search(label)

    def _grid_search(self, label: str) -> Landscape:
        points = self.grid.points_from_flat(np.arange(self.grid.size))
        values = self.evaluate_points(points)
        return Landscape(
            self.grid,
            values.reshape(self.grid.shape),
            label=label,
            circuit_executions=self.grid.size,
        )

    def evaluate_indices(self, flat_indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Cost values at a subset of grid points (OSCAR's sampling).

        Indices are bounds-checked first (negative or >= ``grid.size``
        raises ``ValueError`` instead of silently wrapping).  With
        ``daemon=`` set, the subset is evaluated server-side through
        the daemon's ``compute_indices`` op — warm persistent pool,
        read-through from a cached dense landscape when one exists,
        concurrent identical requests computed once — falling back to
        the local path when no daemon is listening.
        """
        flat_indices = validate_flat_indices(self.grid.size, flat_indices)
        if self.daemon is not None:
            return self._client().evaluate_indices(
                self.function,
                self.grid,
                flat_indices,
                seed=self.seed,
                fallback=lambda: self.local_evaluate_indices(flat_indices),
            )
        return self.local_evaluate_indices(flat_indices)

    def local_evaluate_indices(
        self, flat_indices: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """The in-process :meth:`evaluate_indices` path (ignores
        ``daemon=``).  This is both the no-daemon fallback and what the
        daemon itself runs server-side on a sparse miss.  The indices
        are checked by :meth:`~repro.landscape.grid.ParameterGrid.points_from_flat`."""
        return self.evaluate_points(self.grid.points_from_flat(flat_indices))

    def run_pipeline(self, config, sample_rng=None):
        """One OSCAR loop: sample → evaluate → reconstruct → optimize.

        ``config`` is a :class:`~repro.service.pipeline.PipelineConfig`;
        the result is a :class:`~repro.service.pipeline.PipelineOutcome`
        carrying the reconstructed landscape, its report, the optimizer
        trajectory and per-stage timings.  With ``daemon=`` set, the
        whole loop runs server-side in one request (the ``pipeline``
        op), falling back to the in-process implementation when no
        daemon is listening.
        """
        from ..service.pipeline import run_pipeline

        if self.daemon is not None:
            return self._client().run_pipeline(
                self.function,
                self.grid,
                config,
                sample_rng=sample_rng,
                seed=self.seed,
                fallback=lambda: run_pipeline(self, config, sample_rng),
            )
        return run_pipeline(self, config, sample_rng)

    def evaluate_point(self, parameters: np.ndarray) -> float:
        """Cost at an arbitrary (off-grid) parameter vector."""
        return self.function(np.asarray(parameters, dtype=float))
