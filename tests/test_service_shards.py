"""Sharded execution: planning, merge determinism, seeding contract."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.mitigation import ZneConfig, zne_cost_function
from repro.problems import random_3_regular_maxcut
from repro.quantum import NoiseModel
from repro.service import ShardedExecutor, plan_shards
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
    the evaluating process has unpickled one (counted per pid, so forked
    workers start from zero)."""

    unpickled: dict[int, int] = {}

    def __init__(self):
        # Holds each batch long enough for the other worker to take its own.
        self.delay = 0.05

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.unpickled[os.getpid()] = self.unpickled.get(os.getpid(), 0) + 1

    def many(self, points):
        time.sleep(self.delay)
        return np.full(len(points), float(self.unpickled.get(os.getpid(), 0)))


def test_each_worker_gets_one_task_batch():
    """16 shards on 2 workers ship as one pickled batch per worker, so
    each worker unpickles the cost function (and would build its ansatz
    caches) once per call."""
    values = ShardedExecutor(workers=2, shard_points=1).run(
        _UnpickleCounter(), np.zeros((16, 2))
    )
    np.testing.assert_array_equal(values, 1.0)


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
