"""The three benchmark workloads.

Each workload drives the program only through its public entry points
(:class:`LandscapeGenerator`, :class:`LandscapeDaemon`,
:class:`LandscapeClient`, :class:`PipelineConfig`) and splits its work
into four phases the harness times separately:

- ``prepare`` — the benchmark's own work: generate every input from the
  workload seed and compute the reference values with the in-process
  ``workers=1`` path.  Not part of ``setup_s``.
- ``start`` / ``stop`` — the program's own set-up (daemon start and pool
  fork, warm-up, store priming) and its teardown.  ``start`` is what
  ``setup_s`` times.
- ``inputs`` then ``op`` — one closed-loop operation; only ``op`` is
  timed.  ``inputs`` picks the operation's inputs, a pure function of
  ``(seed, client, seq)`` plus a per-client cursor.
- ``check`` — compares an operation's result with the references after
  the timed window (a mismatch counts as a failed operation).

Sizes live in :class:`Sizes`; :data:`SMOKE` is the tiny variant the
smoke mode runs.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz
from repro.experiments.slices import random_slice
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.landscape.metrics import nrmse
from repro.landscape.reconstructor import OscarReconstructor
from repro.mitigation import ZneConfig, ZneCostFunction
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.quantum import NoiseModel
from repro.service import LandscapeClient, LandscapeDaemon, PipelineConfig

#: Values served by the program must equal the references this closely.
ATOL = 1e-10
#: Client socket timeout: a hung request becomes a failed operation
#: instead of a hung benchmark.
CLIENT_TIMEOUT_S = 60.0
#: The Tables 2-3 device rates (depolarizing + readout).
SLICE_NOISE = NoiseModel(p1=0.003, p2=0.007, readout=0.01)
#: Richardson ZNE at scale factors (1, 2, 3).
ZNE = ZneConfig((1.0, 2.0, 3.0), "richardson")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and pool sizes of every workload."""

    # Table-1 grid at 8 qubits: large enough that pool workers hit the
    # multithreaded BLAS path, small enough for 100+ operations per run.
    qaoa_qubits: int = 8
    qaoa_resolution: tuple[int, int] = (50, 100)
    zne_qubits: int = 5
    # Puts a ZNE slice between the fast and the slow QAOA operations, so
    # the median of the alternating mix falls inside one kind's cluster.
    zne_points: int = 26
    cold_instances: int = 8
    oscar_instances: int = 4
    fraction: float = 0.05
    working_set: int = 6
    # Below the BLAS threading threshold: a miss costs store and
    # protocol work, not pool-worker spin.
    new_qubits: int = 6
    new_resolution: tuple[int, int] = (20, 40)
    new_specs: int = 96
    new_room: int = 4
    nrmse_ops: int = 100


SMOKE = Sizes(
    qaoa_qubits=6,
    qaoa_resolution=(10, 20),
    zne_qubits=3,
    zne_points=6,
    cold_instances=2,
    oscar_instances=2,
    fraction=0.2,
    working_set=2,
    new_qubits=4,
    new_resolution=(6, 8),
    new_specs=8,
    new_room=2,
    nrmse_ops=4,
)


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    """``count`` integer seeds from one named stream of the workload seed."""
    rng = np.random.default_rng([seed, stream])
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


def _op_rng(seed: int, stream: int, client: int, seq: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, client, seq])


def _mismatch(expected: np.ndarray, actual) -> str | None:
    actual = np.asarray(actual, dtype=float)
    if actual.shape != expected.shape:
        return f"shape {actual.shape} != {expected.shape}"
    difference = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    if not difference <= ATOL:
        return f"max |served - reference| = {difference:.3e}"
    return None


class ZneSliceCost:
    """ZNE-mitigated cost over a 2-D slice (Tables 2-3 protocol).

    Slice points are embedded into full parameter vectors (the frozen
    coordinates come from the :class:`SliceSpec`) and evaluated by the
    program's :class:`ZneCostFunction`, so the scale factors fold into
    the batch axis exactly as in a full-space ZNE landscape.
    """

    shots = None
    rng = None

    def __init__(self, ansatz, spec, noise=SLICE_NOISE, config=ZNE):
        self.spec = spec
        self.zne = ZneCostFunction(ansatz, noise, config)

    @property
    def num_qubits(self) -> int:
        return self.zne.num_qubits

    @property
    def rows_per_point(self) -> int:
        return self.zne.rows_per_point

    def batch_capacity(self) -> int:
        return self.zne.batch_capacity()

    def _embed(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        full = np.tile(self.spec.fixed_values, (points.shape[0], 1))
        full[:, self.spec.varying[0]] = points[:, 0]
        full[:, self.spec.varying[1]] = points[:, 1]
        return full

    def many(self, points: np.ndarray) -> np.ndarray:
        return self.zne.many(self._embed(points))

    def __call__(self, point: np.ndarray) -> float:
        return float(self.many(point)[0])


class Workload:
    """Base class; see the module docstring for the phase contract."""

    name = ""
    clients = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, workers: int):
        self.seed = int(seed)
        self.sizes = sizes
        self.workdir = workdir
        self.workers = int(workers)
        self.daemon: LandscapeDaemon | None = None
        self.clients_: list[LandscapeClient] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None
        self.clients_ = []
        shutil.rmtree(self.workdir / "store", ignore_errors=True)

    def inputs(self, client: int, seq: int):
        raise NotImplementedError

    def op(self, client: int, inputs):
        raise NotImplementedError

    def check(self, client: int, inputs, result) -> str | None:
        raise NotImplementedError

    def quality(self, results) -> dict[str, float]:
        """Result-quality numbers beyond pass/fail (none by default)."""
        return {}

    def layer_metrics(self, records) -> dict[str, float]:
        """Per-layer numbers read from operation results (none by default)."""
        return {}

    def client_fallbacks(self, client: int) -> int:
        """Requests this client served in-process because no daemon
        answered (the harness fails each such operation)."""
        return self.clients_[client].fallbacks if self.clients_ else 0

    def stats_client(self) -> LandscapeClient | None:
        return self.clients_[0] if self.clients_ else None

    def _start_daemon(self, **options) -> None:
        store = self.workdir / "store"
        shutil.rmtree(store, ignore_errors=True)
        # ``workdir`` is relative to the checkout root, which keeps the
        # socket path under the kernel's 108-byte limit however deep
        # the checkout lives.
        self.daemon = LandscapeDaemon(
            self.workdir / "daemon.sock",
            workers=self.workers,
            cache_dir=store,
            **options,
        )
        self.daemon.start()


# -- grid-cold -------------------------------------------------------------------


class GridCold(Workload):
    name = "grid-cold"

    def prepare(self) -> None:
        sizes = self.sizes
        count = sizes.cold_instances
        self.qaoa_grid = qaoa_grid(p=1, resolution=sizes.qaoa_resolution)
        self.qaoa_seeds = _seeds(self.seed, 1, count + 1)
        slice_rng = np.random.default_rng([self.seed, 2])
        self.zne_cases = []
        for problem_seed in _seeds(self.seed, 3, count + 1):
            ansatz = TwoLocalAnsatz(
                sk_problem(sizes.zne_qubits, seed=problem_seed).to_pauli_sum(), reps=1
            )
            spec = random_slice(ansatz, sizes.zne_points, rng=slice_rng)
            self.zne_cases.append((problem_seed, spec))
        # The last instance of each kind is the warm-up one; operations
        # cycle through the first ``count`` in a seed-drawn order.
        self.references = [
            [self._generator(0, i, workers=1).grid_search().values for i in range(count)],
            [self._generator(1, i, workers=1).grid_search().values for i in range(count)],
        ]
        order = np.random.default_rng([self.seed, 4])
        self.order = [order.permutation(count), order.permutation(count)]

    def _generator(self, kind: int, index: int, workers: int) -> LandscapeGenerator:
        """A fresh generator (fresh ansatz, fresh caches) for one instance."""
        if kind == 0:
            problem = random_3_regular_maxcut(
                self.sizes.qaoa_qubits, seed=self.qaoa_seeds[index]
            )
            function = cost_function(QaoaAnsatz(problem, p=1))
            return LandscapeGenerator(function, self.qaoa_grid, workers=workers)
        problem_seed, spec = self.zne_cases[index]
        ansatz = TwoLocalAnsatz(
            sk_problem(self.sizes.zne_qubits, seed=problem_seed).to_pauli_sum(), reps=1
        )
        return LandscapeGenerator(ZneSliceCost(ansatz, spec), spec.grid, workers=workers)

    def start(self) -> None:
        warm = self.sizes.cold_instances
        for kind in (0, 1):
            self._generator(kind, warm, workers=self.workers).grid_search()

    def inputs(self, client: int, seq: int):
        kind = seq % 2
        count = self.sizes.cold_instances
        return kind, int(self.order[kind][(seq // 2) % count])

    def op(self, client: int, inputs):
        kind, index = inputs
        return self._generator(kind, index, workers=self.workers).grid_search().values

    def check(self, client: int, inputs, result) -> str | None:
        kind, index = inputs
        return _mismatch(self.references[kind][index], result)


# -- oscar-loop ------------------------------------------------------------------


class OscarLoop(Workload):
    name = "oscar-loop"

    def prepare(self) -> None:
        sizes = self.sizes
        self.grid = qaoa_grid(p=1, resolution=sizes.qaoa_resolution)
        self.problems = [
            random_3_regular_maxcut(sizes.qaoa_qubits, seed=problem_seed)
            for problem_seed in _seeds(self.seed, 1, sizes.oscar_instances)
        ]
        self.references = [
            LandscapeGenerator(cost_function(QaoaAnsatz(problem, p=1)), self.grid)
            .grid_search()
            .values
            for problem in self.problems
        ]
        self.config = PipelineConfig(fraction=sizes.fraction, optimizer="cobyla")

    def start(self) -> None:
        self._start_daemon()
        client = LandscapeClient(self.daemon.socket_path, timeout=CLIENT_TIMEOUT_S)
        self.clients_ = [client]
        self.generators = [
            LandscapeGenerator(
                cost_function(QaoaAnsatz(problem, p=1)), self.grid, daemon=client
            )
            for problem in self.problems
        ]
        # Warm-up request with a sample seed no operation draws.
        self.generators[0].run_pipeline(self.config, sample_rng=2**31)

    def inputs(self, client: int, seq: int):
        rng = _op_rng(self.seed, 5, client, seq)
        return (
            seq,
            int(rng.integers(len(self.problems))),
            int(rng.integers(0, 2**31 - 1)),
        )

    def op(self, client: int, inputs):
        _, index, sample_seed = inputs
        outcome = self.generators[index].run_pipeline(
            self.config, sample_rng=sample_seed
        )
        return outcome

    def check(self, client: int, inputs, outcome) -> str | None:
        seq, index, sample_seed = inputs
        expected = OscarReconstructor(
            self.grid, sampler=self.config.sampler, rng=sample_seed
        ).sample_indices(self.config.fraction)
        if not np.array_equal(np.asarray(outcome.flat_indices), expected):
            return "sampled indices differ from the seeded sampler"
        reference = self.references[index].reshape(-1)
        return _mismatch(reference[expected], outcome.values)

    def layer_metrics(self, records) -> dict[str, float]:
        """Pipeline stage times (server-side, from ``PipelineOutcome.timings``)
        and optimizer queries, as medians over the window's operations."""
        outcomes = [record.result for record in records if record.error is None]
        if not outcomes:
            return {}
        metrics = {
            f"service.pipeline.{stage}_ms": 1e3
            * float(np.median([outcome.timings.get(stage, 0.0) for outcome in outcomes]))
            for stage in ("sample", "evaluate", "reconstruct", "optimize")
        }
        metrics["optimizers.num_queries"] = float(
            np.median([outcome.optimization.num_queries for outcome in outcomes])
        )
        return metrics

    def quality(self, results) -> dict[str, float]:
        """Median reconstruction NRMSE over the first ``nrmse_ops``
        operations (a fixed, seed-determined set)."""
        errors = [
            nrmse(self.references[inputs[1]], outcome.landscape.values)
            for _, inputs, outcome in sorted(results, key=lambda r: r[1][0])
            if inputs[0] < self.sizes.nrmse_ops
        ]
        return {"recon_nrmse": float(np.median(errors))} if errors else {}


# -- cache-hot -------------------------------------------------------------------


class CacheHot(Workload):
    name = "cache-hot"
    clients = 2
    #: Operation mix: compute hit, read-through compute_indices, new spec.
    MIX = (0.75, 0.20, 0.05)
    TENANT = "bench"

    def prepare(self) -> None:
        sizes = self.sizes
        self.grid = qaoa_grid(p=1, resolution=sizes.qaoa_resolution)
        self.new_grid = qaoa_grid(p=1, resolution=sizes.new_resolution)
        self.hot = [
            random_3_regular_maxcut(sizes.qaoa_qubits, seed=problem_seed)
            for problem_seed in _seeds(self.seed, 1, sizes.working_set)
        ]
        # Gaussian SK couplings keep every new spec distinct at any width.
        self.new = [
            sk_problem(sizes.new_qubits, seed=problem_seed, couplings="gaussian")
            for problem_seed in _seeds(self.seed, 2, sizes.new_specs)
        ]
        hot_landscapes = [
            LandscapeGenerator(cost_function(QaoaAnsatz(problem, p=1)), self.grid)
            .grid_search()
            for problem in self.hot
        ]
        new_landscapes = [
            LandscapeGenerator(cost_function(QaoaAnsatz(problem, p=1)), self.new_grid)
            .grid_search()
            for problem in self.new
        ]
        self.hot_references = [landscape.values for landscape in hot_landscapes]
        self.new_references = [landscape.values for landscape in new_landscapes]
        # Byte budget: the working set plus room for ``new_room`` new
        # specs, so the trickle of new specs keeps evicting while every
        # working-set entry (touched at least once per 2 * working_set
        # operations of each client) stays more recent than them.
        hot_bytes = sum(len(landscape.to_bytes()) for landscape in hot_landscapes)
        new_bytes = max(len(landscape.to_bytes()) for landscape in new_landscapes)
        self.quota_bytes = hot_bytes + sizes.new_room * new_bytes
        self.sample_size = max(1, math.ceil(sizes.fraction * self.grid.size))
        self.token = f"oscarbench-{self.seed}"
        self.cursors = [0] * self.clients

    def start(self) -> None:
        tokens = self.workdir / "tokens.json"
        tokens.write_text(
            json.dumps(
                {self.TENANT: {"token": self.token, "quota_bytes": self.quota_bytes}}
            )
        )
        self._start_daemon(tcp=("127.0.0.1", 0), tokens_file=tokens)
        host, port = self.daemon.tcp_address
        target = f"tcp://{host}:{port}"
        self.clients_ = [
            LandscapeClient(target, timeout=CLIENT_TIMEOUT_S, token=self.token)
            for _ in range(self.clients)
        ]
        self.hot_generators = [
            [
                LandscapeGenerator(
                    cost_function(QaoaAnsatz(problem, p=1)), self.grid, daemon=client
                )
                for problem in self.hot
            ]
            for client in self.clients_
        ]
        self.new_generators = [
            [
                LandscapeGenerator(
                    cost_function(QaoaAnsatz(problem, p=1)), self.new_grid, daemon=client
                )
                for problem in self.new
            ]
            for client in self.clients_
        ]
        for generator in self.hot_generators[0]:
            generator.grid_search()
        self.cursors = [0] * self.clients

    def inputs(self, client: int, seq: int):
        rng = _op_rng(self.seed, 6, client, seq)
        draw = rng.random()
        if draw >= self.MIX[0] + self.MIX[1]:
            # New specs come from one sequence both clients walk, so a
            # spec one client is computing may be requested by the other.
            index = self.cursors[client] % len(self.new)
            self.cursors[client] += 1
            return "new", index, None
        working_set = len(self.hot)
        cycle = _op_rng(self.seed, 7, client, seq // working_set)
        index = int(cycle.permutation(working_set)[seq % working_set])
        if draw < self.MIX[0]:
            return "hit", index, None
        indices = rng.choice(self.grid.size, size=self.sample_size, replace=False)
        return "sparse", index, indices

    def op(self, client: int, inputs):
        kind, index, indices = inputs
        if kind == "new":
            return self.new_generators[client][index].grid_search().values
        generator = self.hot_generators[client][index]
        if kind == "hit":
            return generator.grid_search().values
        return generator.evaluate_indices(indices)

    def check(self, client: int, inputs, result) -> str | None:
        kind, index, indices = inputs
        if kind == "new":
            return _mismatch(self.new_references[index], result)
        reference = self.hot_references[index]
        if kind == "hit":
            return _mismatch(reference, result)
        return _mismatch(reference.reshape(-1)[indices], result)


WORKLOADS = {workload.name: workload for workload in (GridCold, OscarLoop, CacheHot)}
