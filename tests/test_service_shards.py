"""Sharded execution: planning, merge determinism, seeding contract."""

from __future__ import annotations

import itertools
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.mitigation import ZneConfig, zne_cost_function
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.quantum import NoiseModel
from repro.service import ShardedExecutor, plan_shards, shards
from repro.service.shards import DEFAULT_MAX_SHARDS, _openblas_thread_controls


@pytest.fixture
def qaoa():
    return QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)


@pytest.fixture
def grid():
    return qaoa_grid(p=1, resolution=(7, 11))  # 77 points: uneven shards


# -- shard planning ------------------------------------------------------------


def test_plan_covers_every_index_exactly_once():
    for size, shard_points in ((77, 10), (77, None), (1, 1), (5, 100)):
        shards = plan_shards(size, shard_points)
        covered = [
            index
            for shard in shards
            for index in range(shard.start, shard.stop)
        ]
        assert covered == list(range(size))
        assert [shard.index for shard in shards] == list(range(len(shards)))


def test_plan_default_stays_within_max_shards():
    for size in (1, 15, 16, 17, 1000, 5000):
        shards = plan_shards(size)
        assert len(shards) <= DEFAULT_MAX_SHARDS
        assert sum(shard.size for shard in shards) == size


def test_plan_is_worker_count_independent():
    """The layout is a pure function of (size, shard_points) — the
    worker count never appears, which is what makes seeded shot noise
    identical for any parallelism."""
    assert plan_shards(1000, 37) == plan_shards(1000, 37)
    assert plan_shards(0) == []


def test_plan_validates_inputs():
    with pytest.raises(ValueError):
        plan_shards(-1)
    with pytest.raises(ValueError):
        plan_shards(10, 0)
    with pytest.raises(ValueError):
        ShardedExecutor(workers=0)
    with pytest.raises(ValueError):
        ShardedExecutor(shard_points=0)


# -- exact landscapes: any workers == serial ----------------------------------


def test_exact_grid_search_matches_across_worker_counts(qaoa, grid):
    reference = LandscapeGenerator(cost_function(qaoa), grid).grid_search()
    for workers in (1, 2, 3):
        sharded = LandscapeGenerator(
            cost_function(qaoa), grid, workers=workers
        ).grid_search()
        np.testing.assert_allclose(
            sharded.values, reference.values, rtol=0.0, atol=1e-10
        )
        assert sharded.circuit_executions == grid.size


def test_exact_evaluate_indices_matches(qaoa, grid):
    indices = np.array([0, 3, 5, 20, 21, 22, 76, 40])
    reference = LandscapeGenerator(cost_function(qaoa), grid).evaluate_indices(
        indices
    )
    sharded = LandscapeGenerator(
        cost_function(qaoa), grid, workers=2
    ).evaluate_indices(indices)
    np.testing.assert_allclose(sharded, reference, rtol=0.0, atol=1e-10)


def _plain_cosine(point):
    """A picklable closure-free cost function (no ``many`` path)."""
    return float(np.cos(point[0]) * np.sin(point[1]))


def test_plain_closures_shard_too(grid):
    """Functions without a batched ``many`` path still shard (the
    per-shard worker falls back to the point loop)."""
    values = LandscapeGenerator(_plain_cosine, grid, workers=2).grid_search()
    expected = np.array(
        [
            float(np.cos(point[0]) * np.sin(point[1]))
            for _, point in grid.iter_points()
        ]
    ).reshape(grid.shape)
    np.testing.assert_allclose(values.values, expected, rtol=0.0, atol=1e-12)


# -- pool workers: one BLAS thread, one task batch -----------------------------


def _blas_threads(point):
    """A closure-free probe (no ``many``): the most threads any OpenBLAS
    mapped into the evaluating process will use."""
    return float(max(get_threads() for _, get_threads in _openblas_thread_controls()))


@pytest.mark.skipif(
    not _openblas_thread_controls(), reason="no OpenBLAS mapped into this process"
)
def test_pool_workers_run_one_blas_thread():
    values = ShardedExecutor(workers=2, shard_points=1).run(
        _blas_threads, np.zeros((4, 2))
    )
    np.testing.assert_array_equal(values, 1.0)


class _UnpickleCounter:
    """A picklable cost function whose ``many`` reports how many times
    the evaluating process has unpickled this call's instance (counted
    per pid and per instance, since the pool's workers outlive a call)."""

    unpickled: dict[tuple[int, int], int] = {}
    _tokens = itertools.count()

    def __init__(self):
        # Holds each batch long enough for the other worker to take its own.
        self.delay = 0.05
        self.token = next(self._tokens)

    def _key(self) -> tuple[int, int]:
        return os.getpid(), self.token

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.unpickled[self._key()] = self.unpickled.get(self._key(), 0) + 1

    def many(self, points):
        time.sleep(self.delay)
        return np.full(len(points), float(self.unpickled.get(self._key(), 0)))


def test_each_worker_gets_one_task_batch():
    """16 shards on 2 workers ship as one pickled batch per worker, so
    each worker unpickles the cost function (and would build its ansatz
    caches) once per call."""
    for _ in range(2):
        values = ShardedExecutor(workers=2, shard_points=1).run(
            _UnpickleCounter(), np.zeros((16, 2))
        )
        np.testing.assert_array_equal(values, 1.0)


# -- the process's pool: reuse, lost workers, exit, heap -----------------------


class _WorkerPid:
    """A picklable cost function whose values are the evaluating pid."""

    def many(self, points):
        # Holds each batch long enough for the other worker to take its own.
        time.sleep(0.02)
        return np.full(len(points), float(os.getpid()))


def test_grid_searches_reuse_the_process_pool(grid):
    """Fresh generators fork no pool of their own: the workers of one
    grid search serve the next."""
    first, second = (
        set(LandscapeGenerator(_WorkerPid(), grid, workers=2).grid_search().flat())
        for _ in range(2)
    )
    assert len(first) == 2 and first == second
    assert {float(pid) for pid in shards.worker_pool(2)._processes} == first


class _KillsItsWorker:
    """A cost function whose ``many`` SIGKILLs the pool worker running it."""

    def __init__(self):
        self.parent = os.getpid()

    def many(self, points):
        if os.getpid() != self.parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return np.zeros(len(points))


def _bounded(call, timeout: float):
    """``call()`` on a thread joined with ``timeout``: returns the
    thread and a one-entry list holding the result or the exception."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except Exception as error:  # noqa: BLE001 - handed to the test
            outcome.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    return thread, outcome


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_lost_worker_fails_its_call_and_the_next_call_is_served(grid):
    thread, outcome = _bounded(
        lambda: ShardedExecutor(workers=2, shard_points=1).run(
            _KillsItsWorker(), np.zeros((4, 2))
        ),
        timeout=20.0,
    )
    assert not thread.is_alive(), "a lost worker hung the call"
    assert isinstance(outcome[0], BrokenProcessPool), outcome

    points = grid.points_from_flat(np.arange(grid.size))
    thread, outcome = _bounded(
        lambda: ShardedExecutor(workers=2, shard_points=8).run(_plain_cosine, points),
        timeout=20.0,
    )
    assert not thread.is_alive(), "the call after a lost worker hung"
    expected = [_plain_cosine(point) for point in points]
    np.testing.assert_allclose(outcome[0], expected, rtol=0.0, atol=1e-12)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie waiting for its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


_HARD_EXIT = """
import os, sys
from repro.ansatz import QaoaAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut
from repro.service.shards import worker_pool

function = cost_function(QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1))
LandscapeGenerator(function, qaoa_grid(p=1, resolution=(4, 8)), workers=2).grid_search()
with open(sys.argv[1], "w") as handle:
    handle.write(" ".join(str(pid) for pid in worker_pool(2)._processes))
os._exit(0)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_workers_exit_with_a_process_that_skips_its_exit_handlers(tmp_path):
    """A process ended by ``os._exit`` runs no exit handler, so only the
    workers' own parent check can stop them."""
    pid_file = tmp_path / "workers"
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]), environment.get("PYTHONPATH")])
    )
    # The pids travel through a file: a worker left alive would hold a
    # pipe open and hang any reader waiting for its end.
    subprocess.run(
        [sys.executable, "-c", _HARD_EXIT, str(pid_file)],
        env=environment,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        timeout=60,
        check=True,
    )
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids), "workers outlived their process"


def test_concurrent_first_calls_fork_one_pool(no_warm_pool, monkeypatch, qaoa):
    """More threads than cores race for a 2-worker pool that does not
    exist yet: every value is right and exactly one pool is forked."""
    forked = []

    class CountingExecutor(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            forked.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(shards, "ProcessPoolExecutor", CountingExecutor)
    function = cost_function(qaoa)
    threads = 2 * (os.cpu_count() or 1) + 2
    batches = [
        np.random.default_rng(seed).uniform(-np.pi, np.pi, (24, 2))
        for seed in range(threads)
    ]
    barrier = threading.Barrier(threads, timeout=30.0)
    results: dict[int, object] = {}

    def run(index: int) -> None:
        try:
            barrier.wait()
            results[index] = ShardedExecutor(workers=2).run(function, batches[index])
        except Exception as error:  # noqa: BLE001 - handed to the test
            results[index] = error

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=run, args=(index,), daemon=True)
            for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 60.0
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers), "a caller hung"
    for index, batch in enumerate(batches):
        np.testing.assert_allclose(
            results[index], function.many(batch), rtol=0.0, atol=1e-10
        )
    assert len(forked) == 1
    assert shards.worker_pool(2) is forked[0]


class _WorkerFaults:
    """Wraps a cost function: ``many`` returns the minor page faults its
    evaluation took in the running process (first entry of the chunk,
    zeros after), so the values sum to the faults of a whole call."""

    def __init__(self, function):
        self.function = function
        self.rows_per_point = function.rows_per_point

    def batch_capacity(self) -> int:
        return self.function.batch_capacity()

    def many(self, points):
        import resource

        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.function.many(points)
        faults = np.zeros(len(points))
        faults[0] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        return faults


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
    reason="the heap pin is a glibc mallopt setting",
)
def test_warm_workers_keep_their_freed_engine_stacks():
    """The second of two identical ZNE-slice-sized calls (676 points,
    5 qubits, three scale factors: 2 MB density stacks) faults almost
    nothing in: the workers' heaps kept the stacks the first call freed."""
    ansatz = TwoLocalAnsatz(sk_problem(5, seed=0).to_pauli_sum(), reps=1)
    function = _WorkerFaults(
        zne_cost_function(
            ansatz,
            NoiseModel(p1=0.003, p2=0.007, readout=0.01),
            ZneConfig((1.0, 2.0, 3.0), "richardson"),
        )
    )
    points = np.random.default_rng(0).uniform(
        -np.pi, np.pi, (676, ansatz.num_parameters)
    )
    executor = ShardedExecutor(workers=2)
    executor.run(function, points)
    faults = executor.run(function, points).sum()
    assert faults < 2000, f"{faults:.0f} minor faults on warm workers"


# -- parity mode: workers=1 reproduces the serial batched path ----------------


def test_parity_mode_matches_unsharded_draw_for_draw(qaoa, grid):
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    unsharded = LandscapeGenerator(
        cost_function(qaoa, shots=48, rng=rng_a), grid
    ).grid_search()
    points = grid.points_from_flat(np.arange(grid.size))
    sharded = ShardedExecutor(workers=1, shard_points=13).run(
        cost_function(qaoa, shots=48, rng=rng_b), points
    )
    np.testing.assert_array_equal(sharded, unsharded.flat())
    # Both generators sit at the same stream position afterwards.
    assert rng_a.integers(1 << 63) == rng_b.integers(1 << 63)


# -- spawn mode: seeded results identical for any worker count ----------------


@pytest.mark.parametrize("shots", [32], ids=["shots"])
def test_seeded_shot_noise_identical_for_workers_1_2_4(qaoa, grid, shots):
    landscapes = []
    for workers in (1, 2, 4):
        generator = LandscapeGenerator(
            cost_function(qaoa, shots=shots),
            grid,
            workers=workers,
            seed=123,
        )
        landscapes.append(generator.grid_search().values)
    np.testing.assert_array_equal(landscapes[0], landscapes[1])
    np.testing.assert_array_equal(landscapes[0], landscapes[2])


def test_seeded_results_depend_on_seed_and_layout(qaoa, grid):
    def values(seed):
        return LandscapeGenerator(
            cost_function(qaoa, shots=32), grid, seed=seed
        ).grid_search().flat()

    assert not np.array_equal(values(1), values(2))
    np.testing.assert_array_equal(values(1), values(1))
    # A different shard layout is a different rng plan (recorded as
    # shard_points in shot-noise cache keys — see the store tests),
    # hence different draws.  The 77-point grid's default plan is
    # 5-point shards, so 30 is a genuinely different layout.
    points = grid.points_from_flat(np.arange(grid.size))
    relaid = ShardedExecutor(seed=1, shard_points=30).run(
        cost_function(qaoa, shots=32), points
    )
    assert not np.array_equal(values(1), relaid)


def test_seeded_mitigated_landscape_identical_across_workers(qaoa, grid):
    noise = NoiseModel(p1=0.002, p2=0.006)
    config = ZneConfig((1.0, 2.0), "linear")
    reference = None
    for workers in (1, 2):
        generator = LandscapeGenerator(
            zne_cost_function(qaoa, noise, config, shots=24),
            grid,
            workers=workers,
            seed=77,
        )
        values = generator.grid_search().values
        if reference is None:
            reference = values
        else:
            np.testing.assert_array_equal(values, reference)


def test_multiprocess_shot_noise_without_seed_is_refused(qaoa, grid):
    generator = LandscapeGenerator(
        cost_function(qaoa, shots=16, rng=np.random.default_rng(0)),
        grid,
        workers=2,
    )
    with pytest.raises(ValueError, match="seed"):
        generator.grid_search()


def test_seeded_truth_and_sample_runs_draw_independent_noise(qaoa, grid):
    """Distinct evaluations under one seed must not replay each other's
    rng streams: if OSCAR's sample run reused the ground-truth grid's
    per-shard generators, sampled shot noise would correlate with (and
    at shard boundaries equal) the truth values, biasing NRMSE low.
    The spawn root therefore folds in a fingerprint of the evaluated
    points."""
    generator = LandscapeGenerator(
        cost_function(qaoa, shots=32), grid, seed=123
    )
    truth = generator.grid_search()
    indices = np.arange(12)  # aligned with the truth run's first shard
    sampled = generator.evaluate_indices(indices)
    assert not np.array_equal(sampled, truth.flat()[indices]), (
        "sample evaluation replayed the ground-truth rng streams"
    )
    # Same request, same draws: the evaluation stays reproducible.
    np.testing.assert_array_equal(sampled, generator.evaluate_indices(indices))


def test_seeded_executor_does_not_mutate_the_callers_function(qaoa):
    """Spawn mode reseeds a copy, never the caller's cost function."""
    rng = np.random.default_rng(0)
    function = cost_function(qaoa, shots=16, rng=rng)
    executor = ShardedExecutor(workers=1, shard_points=4, seed=5)
    points = np.random.default_rng(1).uniform(-1, 1, (10, 2))
    executor.run(function, points)
    assert function.rng is rng


# -- ansatz-level entry (the harness path) ------------------------------------


def test_run_ansatz_slices_per_row_noise(qaoa):
    noise = NoiseModel(p1=0.004, p2=0.009)
    rows = [None, noise, noise.scaled(2.0), None, noise.scaled(3.0), noise]
    batch = np.random.default_rng(3).uniform(-np.pi, np.pi, (6, 2))
    expected = qaoa.expectation_many(batch, noise=rows)
    sharded = ShardedExecutor(workers=1, shard_points=2).run_ansatz(
        qaoa, batch, noise=rows
    )
    np.testing.assert_allclose(sharded, expected, rtol=0.0, atol=1e-10)
    with pytest.raises(ValueError):
        ShardedExecutor(shard_points=2).run_ansatz(qaoa, batch, noise=rows[:3])
