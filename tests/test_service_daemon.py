"""Tests for the landscape daemon and its client library.

Covers the protocol (every op, malformed input), the service semantics
(store hit/miss and single-flight dedup through one daemon), the
failure modes the docs promise (no daemon -> transparent in-process
fallback; daemon restart preserves the store; malformed requests
return structured errors without killing the server), and the ``LandscapeGenerator(daemon=...)`` / CLI wiring.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut
from repro.service import (
    DaemonError,
    LandscapeClient,
    LandscapeDaemon,
    LandscapeStore,
    ShardedExecutor,
    shards,
)
from repro.service.shards import _openblas_thread_controls


@pytest.fixture
def ansatz():
    return QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)


@pytest.fixture
def grid():
    return qaoa_grid(p=1, resolution=(6, 12))


@pytest.fixture
def daemon(tmp_path):
    """A running daemon (workers=1) with a store under tmp_path."""
    instance = LandscapeDaemon(
        tmp_path / "daemon.sock", workers=1, cache_dir=tmp_path / "cache"
    )
    instance.start()
    yield instance
    instance.close()


def _client(daemon) -> LandscapeClient:
    return LandscapeClient(daemon.socket_path)


# -- protocol basics ----------------------------------------------------------


def test_ping_and_is_alive(daemon):
    import stat

    client = _client(daemon)
    assert client.is_alive()
    response = client.ping()
    assert response["workers"] == 1
    assert response["uptime"] >= 0.0
    # Tokenless Unix callers act as the default tenant: owner-only.
    assert stat.S_IMODE(daemon.socket_path.stat().st_mode) == 0o600


def test_malformed_request_returns_structured_error(daemon):
    """Garbage on the socket produces an error response, not a dead
    server."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.connect(str(daemon.socket_path))
        with raw.makefile("rwb") as stream:
            stream.write(b"this is not json\n")
            stream.flush()
            line = stream.readline()
    assert b'"ok": false' in line
    assert b"JSONDecodeError" in line
    # The server survived and still answers.
    assert _client(daemon).is_alive()


def test_unknown_op_is_a_structured_error(daemon):
    with pytest.raises(DaemonError, match="unknown op") as refused:
        _client(daemon)._request({"version": 2, "op": "teleport"})
    assert refused.value.code == "unknown-op"
    assert _client(daemon).is_alive()


def test_compute_without_task_is_a_structured_error(daemon):
    with pytest.raises(DaemonError, match="function spec") as refused:
        _client(daemon)._request({"version": 2, "op": "compute"})
    assert refused.value.code == "invalid-spec"


def test_shot_noise_without_seed_is_rejected(daemon, ansatz, grid):
    """The store's seeding rule surfaces as a DaemonError (no silent
    uncacheable computation)."""
    client = _client(daemon)
    with pytest.raises(DaemonError, match="seed"):
        client.get_or_compute(
            cost_function(ansatz, shots=128, rng=np.random.default_rng(0)),
            grid,
        )


# -- service semantics --------------------------------------------------------


def test_compute_then_hit_and_store_roundtrip(daemon, ansatz, grid):
    client = _client(daemon)
    function = cost_function(ansatz)
    first = client.get_or_compute(function, grid, label="demo")
    assert client.last_served_by == "daemon-computed"
    second = client.get_or_compute(function, grid, label="demo")
    assert client.last_served_by == "daemon-hit"
    np.testing.assert_array_equal(first.values, second.values)
    assert second.label == "demo"

    local = LandscapeGenerator(function, grid).grid_search(label="demo")
    np.testing.assert_allclose(first.values, local.values, rtol=0.0, atol=1e-10)

    stats = client.stats()
    assert stats["counters"]["computed"] == 1
    assert stats["counters"]["hits"] == 1
    assert stats["store"]["entries"] == 1

    entries = client.index()
    assert len(entries) == 1
    key = entries[0]["key"]
    served = client.get(key)
    np.testing.assert_array_equal(served.values, first.values)
    assert client.invalidate(key) is True
    assert client.get(key) is None
    assert client.invalidate(key) is False


def test_generator_daemon_wiring(daemon, ansatz, grid):
    """LandscapeGenerator(daemon=...) serves grid_search through the
    daemon (accepting a path or a client)."""
    function = cost_function(ansatz)
    client = LandscapeClient(daemon.socket_path)
    by_path = LandscapeGenerator(function, grid, daemon=daemon.socket_path)
    by_client = LandscapeGenerator(function, grid, daemon=client)
    first = by_path.grid_search(label="wired")
    second = by_client.grid_search(label="wired")
    np.testing.assert_array_equal(first.values, second.values)
    assert client.last_served_by == "daemon-hit"
    local = LandscapeGenerator(function, grid).grid_search(label="wired")
    np.testing.assert_allclose(first.values, local.values, rtol=0.0, atol=1e-10)


def test_concurrent_identical_requests_compute_once(
    daemon, ansatz, grid, monkeypatch
):
    """Single-flight dedup: N concurrent identical computes -> one
    computation, every client gets the same landscape."""
    _slow_down(monkeypatch, "local_grid_search", delay=0.4)
    function = cost_function(ansatz)
    results: list = []
    errors: list = []
    barrier = threading.Barrier(3)

    def request():
        try:
            barrier.wait(timeout=10.0)
            client = _client(daemon)
            results.append(client.get_or_compute(function, grid, label="slow"))
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=request) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not errors
    assert len(results) == 3
    for landscape in results[1:]:
        np.testing.assert_array_equal(landscape.values, results[0].values)
    counters = _client(daemon).stats()["counters"]
    assert counters["computed"] == 1
    # Followers either joined the flight or (if they lost the race
    # entirely) hit the store the leader populated.
    assert counters["deduped"] + counters["hits"] == 2


def test_failed_compute_releases_the_flight(daemon, ansatz, grid, monkeypatch):
    """A compute that raises propagates to every waiter and clears the
    in-flight slot so a later request can retry."""

    def explode(self, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(LandscapeGenerator, "local_grid_search", explode)
    function = cost_function(ansatz)
    client = _client(daemon)
    with pytest.raises(DaemonError, match="boom"):
        client.get_or_compute(function, grid)
    assert daemon._inflight == {}
    with pytest.raises(DaemonError, match="boom"):
        client.get_or_compute(function, grid)


# -- failure modes ------------------------------------------------------------


def test_client_without_daemon_falls_back(tmp_path, ansatz, grid):
    """No daemon listening -> transparent in-process computation."""
    client = LandscapeClient(tmp_path / "never-bound.sock")
    assert not client.is_alive()
    function = cost_function(ansatz)
    landscape = client.get_or_compute(function, grid, label="fallback")
    assert client.last_served_by == "local"
    assert client.fallbacks == 1
    local = LandscapeGenerator(function, grid).grid_search(label="fallback")
    np.testing.assert_allclose(
        landscape.values, local.values, rtol=0.0, atol=1e-10
    )


def test_generator_falls_back_with_its_own_store(tmp_path, ansatz, grid):
    """The generator's fallback keeps its own store= semantics: the
    daemonless call still populates the local cache."""
    store = LandscapeStore(tmp_path / "local-cache")
    generator = LandscapeGenerator(
        cost_function(ansatz),
        grid,
        store=store,
        daemon=tmp_path / "never-bound.sock",
    )
    generator.grid_search(label="fallback")
    assert store.misses == 1
    assert len(store.entries()) == 1


def test_fallback_disabled_raises(tmp_path, ansatz, grid):
    from repro.service import DaemonUnavailable

    client = LandscapeClient(tmp_path / "never-bound.sock", fallback=False)
    with pytest.raises(DaemonUnavailable):
        client.get_or_compute(cost_function(ansatz), grid)
    # fallback=False wins even when a fallback callable is supplied
    # (the generator wiring always passes one): the loud-failure mode
    # must never silently compute locally.
    with pytest.raises(DaemonUnavailable):
        LandscapeGenerator(
            cost_function(ansatz), grid, daemon=client
        ).grid_search()


def _blas_threads(point):
    """A closure-free probe (no ``many``): the most threads any OpenBLAS
    mapped into the evaluating process will use."""
    return float(max(get_threads() for _, get_threads in _openblas_thread_controls()))


@pytest.mark.skipif(
    not _openblas_thread_controls(), reason="no OpenBLAS mapped into this process"
)
def test_daemon_pool_workers_run_one_blas_thread(tmp_path):
    with LandscapeDaemon(tmp_path / "blas.sock", workers=2):
        values = ShardedExecutor(workers=2, shard_points=1).run(
            _blas_threads, np.zeros((4, 2))
        )
    np.testing.assert_array_equal(values, 1.0)


def test_daemon_start_forks_the_pool_and_a_restart_reuses_it(tmp_path, no_warm_pool):
    """Both workers run before the first request, and closing a daemon
    leaves them warm for the next one in the same process."""
    key = (os.getpid(), 2)
    with LandscapeDaemon(tmp_path / "first.sock", workers=2):
        pool = shards._POOLS[key]
        workers = dict(pool._processes)
        assert len(workers) == 2
        assert all(process.is_alive() for process in workers.values())
    with LandscapeDaemon(tmp_path / "second.sock", workers=2):
        assert shards._POOLS[key] is pool
        assert pool._processes == workers
        assert all(process.is_alive() for process in workers.values())


def _children_cpu_ticks() -> dict[int, int]:
    """User + system CPU clock ticks of each live child of this process."""
    me = str(os.getpid())
    ticks = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            ticks[int(entry)] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_lost_worker_fails_the_request_with_a_retryable_error(tmp_path, ansatz, grid):
    """A pool worker SIGKILLed mid-request: the request gets a structured
    retryable error instead of hanging, and the next one is served."""
    big = cost_function(QaoaAnsatz(random_3_regular_maxcut(12, seed=0), p=1))
    outcomes = []

    def request(function, request_grid):
        try:
            outcomes.append(client.get_or_compute(function, request_grid))
        except Exception as error:  # noqa: BLE001 - handed to the test
            outcomes.append(error)

    # The fresh pool forks on a request thread while this process's own
    # client socket is open, so its workers hold a copy and the daemon
    # sees no EOF on that connection: close() cancels it after the drain.
    with LandscapeDaemon(
        tmp_path / "kill.sock",
        workers=2,
        cache_dir=tmp_path / "cache",
        drain_timeout=0.5,
    ) as daemon:
        client = LandscapeClient(daemon.socket_path, fallback=False)
        idle = _children_cpu_ticks()
        worker = threading.Thread(
            target=request, args=(big, qaoa_grid(p=1, resolution=(50, 100))), daemon=True
        )
        worker.start()
        # Kill the first child whose CPU time rises by 3 clock ticks: a
        # pool worker computing shards, not an idle one.
        victim, deadline = None, time.monotonic() + 20.0
        while victim is None and worker.is_alive() and time.monotonic() < deadline:
            for pid, ticks in _children_cpu_ticks().items():
                if ticks - idle.get(pid, ticks) >= 3:
                    victim = pid
                    break
            else:
                time.sleep(0.005)
        assert victim is not None, "no worker started computing"
        os.kill(victim, signal.SIGKILL)
        worker.join(30.0)
        assert not worker.is_alive(), "a lost worker hung the request"
        error = outcomes.pop()
        assert isinstance(error, DaemonError), error
        assert error.kind == "BrokenProcessPool"
        assert error.code == "internal" and error.retryable

        worker = threading.Thread(
            target=request, args=(cost_function(ansatz), grid), daemon=True
        )
        worker.start()
        worker.join(30.0)
        assert not worker.is_alive(), "the request after a lost worker hung"
    expected = LandscapeGenerator(cost_function(ansatz), grid).grid_search()
    np.testing.assert_allclose(
        outcomes.pop().values, expected.values, rtol=0.0, atol=1e-10
    )


def test_daemon_restart_preserves_store(tmp_path, ansatz, grid):
    """The store is on disk: a restarted daemon serves yesterday's
    landscapes as hits."""
    function = cost_function(ansatz)
    first_daemon = LandscapeDaemon(
        tmp_path / "daemon.sock", workers=1, cache_dir=tmp_path / "cache"
    )
    with first_daemon:
        first = LandscapeClient(first_daemon.socket_path).get_or_compute(
            function, grid, label="persist"
        )
    assert not first_daemon.socket_path.exists()

    second_daemon = LandscapeDaemon(
        tmp_path / "daemon.sock", workers=1, cache_dir=tmp_path / "cache"
    )
    with second_daemon:
        client = LandscapeClient(second_daemon.socket_path)
        served = client.get_or_compute(function, grid, label="persist")
        assert client.last_served_by == "daemon-hit"
        counters = client.stats()["counters"]
        assert counters["computed"] == 0 and counters["hits"] == 1
    np.testing.assert_array_equal(served.values, first.values)


def test_shutdown_op_stops_the_server(tmp_path):
    daemon = LandscapeDaemon(tmp_path / "daemon.sock", workers=1)
    daemon.start()
    client = LandscapeClient(daemon.socket_path)
    assert client.is_alive()
    client.shutdown()
    deadline = time.time() + 10.0
    while client.is_alive() and time.time() < deadline:
        time.sleep(0.05)
    assert not client.is_alive()
    daemon.close()  # idempotent


# -- raw evaluation (the harness path) ----------------------------------------


def test_evaluate_matches_in_process_with_rng_parity(daemon, ansatz):
    """evaluate round-trips the rng: values and stream position match
    the in-process batch engine exactly."""
    points = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
    daemon_rng = np.random.default_rng(11)
    local_rng = np.random.default_rng(11)
    served = _client(daemon).evaluate_ansatz(
        ansatz, points, shots=64, rng=daemon_rng
    )
    local = ansatz.expectation_many(points, shots=64, rng=local_rng)
    np.testing.assert_allclose(served, local, rtol=0.0, atol=1e-10)
    assert daemon_rng.integers(1 << 63) == local_rng.integers(1 << 63)


# -- sparse evaluation (compute_indices) --------------------------------------


def test_compute_indices_matches_local(daemon, ansatz, grid):
    """The sparse op computes the subset on the daemon's resources."""
    function = cost_function(ansatz)
    client = _client(daemon)
    generator = LandscapeGenerator(function, grid, daemon=client)
    flat_indices = np.array([4, 0, 17, grid.size - 1])
    served = generator.evaluate_indices(flat_indices)
    assert client.last_served_by == "daemon-computed"
    local = LandscapeGenerator(function, grid).local_evaluate_indices(
        flat_indices
    )
    np.testing.assert_allclose(served, local, rtol=0.0, atol=1e-10)
    assert _client(daemon).stats()["counters"]["sparse_computed"] == 1


def test_compute_indices_reads_through_cached_dense(daemon, ansatz, grid):
    """An exact sparse request is answered from a cached dense
    landscape without touching the pool."""
    function = cost_function(ansatz)
    client = _client(daemon)
    generator = LandscapeGenerator(function, grid, daemon=client)
    truth = generator.grid_search()
    flat_indices = np.array([3, 60, 1, 44])
    served = generator.evaluate_indices(flat_indices)
    assert client.last_served_by == "daemon-readthrough"
    np.testing.assert_array_equal(served, truth.flat()[flat_indices])
    counters = client.stats()["counters"]
    assert counters["sparse_hits"] == 1
    assert counters["sparse_computed"] == 0


def test_shot_noise_sparse_never_reads_through(daemon, ansatz, grid):
    """A cached shot-noise dense landscape is a *different draw* than
    evaluating the subset, so stochastic requests always compute."""
    client = _client(daemon)
    # Prime the store with the seeded dense landscape.
    dense_function = cost_function(
        ansatz, shots=96, rng=np.random.default_rng(0)
    )
    client.get_or_compute(dense_function, grid, seed=5)
    sparse_function = cost_function(
        ansatz, shots=96, rng=np.random.default_rng(0)
    )
    generator = LandscapeGenerator(
        sparse_function, grid, seed=5, daemon=client
    )
    generator.evaluate_indices([2, 9, 31])
    assert client.last_served_by == "daemon-computed"
    assert client.stats()["counters"]["sparse_hits"] == 0


def test_out_of_range_indices_are_a_daemon_error(daemon, ansatz, grid):
    """Bounds validation runs server-side too: the client validates
    before it sends, but the protocol must not trust it, so a raw frame
    with a bad index is a structured error."""
    client = _client(daemon)
    function = cost_function(ansatz)
    for indices, detail in (([-3], "negative"), ([grid.size], "out of range")):
        frame = client._function_frame(
            "compute_indices", function, grid, indices=indices
        )
        with pytest.raises(DaemonError, match=detail):
            client._request(frame)
        with pytest.raises(ValueError, match=detail):
            client.evaluate_indices(function, grid, indices)
    assert client.is_alive()


def test_concurrent_sparse_requests_dedup(daemon, ansatz, grid, monkeypatch):
    """Identical concurrent index sets single-flight into one
    evaluation, keyed on (dense spec, index set)."""
    _slow_down(monkeypatch, "local_evaluate_indices", delay=0.4)
    function = cost_function(ansatz)
    flat_indices = np.array([1, 5, 9])
    results: list = []
    errors: list = []
    barrier = threading.Barrier(3)

    def request():
        try:
            barrier.wait(timeout=10.0)
            client = _client(daemon)
            results.append(
                client.evaluate_indices(function, grid, flat_indices)
            )
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=request) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not errors
    assert len(results) == 3
    for values in results[1:]:
        np.testing.assert_array_equal(values, results[0])
    counters = _client(daemon).stats()["counters"]
    assert counters["sparse_computed"] == 1
    assert counters["sparse_deduped"] == 2


def test_evaluate_indices_falls_back_without_daemon(tmp_path, ansatz, grid):
    function = cost_function(ansatz)
    generator = LandscapeGenerator(
        function, grid, daemon=tmp_path / "never-bound.sock"
    )
    flat_indices = np.array([0, 7, 33])
    values = generator.evaluate_indices(flat_indices)
    local = LandscapeGenerator(function, grid).local_evaluate_indices(
        flat_indices
    )
    np.testing.assert_array_equal(values, local)


def test_sparse_rng_round_trips(daemon, ansatz, grid):
    """A seeded shot-noise sparse request leaves the client's bound rng
    exactly where the daemon's evaluation left its copy."""
    daemon_function = cost_function(
        ansatz, shots=64, rng=np.random.default_rng(21)
    )
    client = _client(daemon)
    generator = LandscapeGenerator(
        daemon_function, grid, seed=9, daemon=client
    )
    flat_indices = np.array([8, 2, 40])
    served = generator.evaluate_indices(flat_indices)

    local_function = cost_function(
        ansatz, shots=64, rng=np.random.default_rng(21)
    )
    local = LandscapeGenerator(
        local_function, grid, seed=9
    ).local_evaluate_indices(flat_indices)
    np.testing.assert_allclose(served, local, rtol=0.0, atol=1e-10)
    assert (
        daemon_function.rng.integers(1 << 63)
        == local_function.rng.integers(1 << 63)
    )


# -- the one-request pipeline -------------------------------------------------


def test_pipeline_op_matches_local_run(daemon, ansatz, grid):
    """A daemon-served pipeline returns the same samples, values,
    landscape and optimizer trajectory as the in-process sequence."""
    from repro.service import PipelineConfig

    function = cost_function(ansatz)
    client = _client(daemon)
    config = PipelineConfig(fraction=0.25, optimizer="nelder-mead")
    served = LandscapeGenerator(function, grid, daemon=client).run_pipeline(
        config, sample_rng=3
    )
    assert served.served_by == "daemon"
    assert client.last_served_by == "daemon-pipeline"

    local = LandscapeGenerator(function, grid).run_pipeline(
        config, sample_rng=3
    )
    np.testing.assert_array_equal(served.flat_indices, local.flat_indices)
    np.testing.assert_array_equal(served.values, local.values)
    np.testing.assert_array_equal(
        served.landscape.values, local.landscape.values
    )
    np.testing.assert_array_equal(
        served.optimization.path, local.optimization.path
    )
    assert served.optimization.num_queries == local.optimization.num_queries
    assert set(served.timings) == {
        "sample", "evaluate", "reconstruct", "optimize",
    }

    # Reproducible request -> the reconstruction is cached under a
    # pipeline spec whose key the response hands back.
    assert served.key is not None
    cached = client.get(served.key)
    np.testing.assert_array_equal(cached.values, served.landscape.values)
    assert client.stats()["counters"]["pipeline_runs"] == 1


def test_pipeline_sample_rng_round_trips(daemon, ansatz, grid):
    """A Generator sample_rng advances in the caller's process exactly
    as a local run advances it (and yields no cache key)."""
    from repro.service import PipelineConfig

    function = cost_function(ansatz)
    client = _client(daemon)
    config = PipelineConfig(fraction=0.2)
    daemon_rng = np.random.default_rng(17)
    served = LandscapeGenerator(function, grid, daemon=client).run_pipeline(
        config, sample_rng=daemon_rng
    )
    local_rng = np.random.default_rng(17)
    local = LandscapeGenerator(function, grid).run_pipeline(
        config, sample_rng=local_rng
    )
    np.testing.assert_array_equal(served.flat_indices, local.flat_indices)
    assert served.key is None
    assert daemon_rng.integers(1 << 63) == local_rng.integers(1 << 63)


def test_pipeline_falls_back_without_daemon(tmp_path, ansatz, grid):
    from repro.service import PipelineConfig

    function = cost_function(ansatz)
    generator = LandscapeGenerator(
        function, grid, daemon=tmp_path / "never-bound.sock"
    )
    outcome = generator.run_pipeline(
        PipelineConfig(fraction=0.2), sample_rng=3
    )
    assert outcome.served_by == "local"
    local = LandscapeGenerator(function, grid).run_pipeline(
        PipelineConfig(fraction=0.2), sample_rng=3
    )
    np.testing.assert_array_equal(
        outcome.optimization.path, local.optimization.path
    )


def test_pipeline_config_validation():
    from repro.service import PipelineConfig

    with pytest.raises(ValueError, match="fraction"):
        PipelineConfig(fraction=0.0)
    with pytest.raises(ValueError, match="sampler"):
        PipelineConfig(fraction=0.1, sampler="sobol")
    with pytest.raises(ValueError, match="optimizer"):
        PipelineConfig(fraction=0.1, optimizer="bfgs")
    with pytest.raises(ValueError, match="optimizer must be a string"):
        PipelineConfig(fraction=0.1, optimizer=7)
    with pytest.raises(ValueError, match="label must be a string"):
        PipelineConfig(fraction=0.1, label=7)


@pytest.mark.parametrize(
    "point", [[0.1], [0.1, 0.2, 0.3]], ids=["too-short", "too-long"]
)
def test_local_pipeline_checks_initial_point_before_any_work(tmp_path, point):
    """A local run, and the client's in-process fallback, refuse an
    initial point without one coordinate per grid axis, as the daemon
    does, before the cost function runs once."""
    from repro.service import PipelineConfig, run_pipeline

    calls = []

    def cost(parameters):
        calls.append(parameters)
        return 0.0

    grid = qaoa_grid(p=1, resolution=(4, 8))
    config = PipelineConfig(fraction=0.5, initial_point=point)
    with pytest.raises(ValueError, match="initial_point"):
        run_pipeline(LandscapeGenerator(cost, grid), config, sample_rng=0)
    fallback = LandscapeGenerator(cost, grid, daemon=tmp_path / "never-bound.sock")
    with pytest.raises(ValueError, match="initial_point"):
        fallback.run_pipeline(config, sample_rng=0)
    assert calls == []


def test_pipeline_op_rejects_non_config_task(daemon, ansatz, grid):
    from repro.service.protocol import function_to_spec, grid_to_spec

    frame = {
        "version": 2,
        "op": "pipeline",
        "function": function_to_spec(cost_function(ansatz)),
        "grid": grid_to_spec(grid),
        "sample_rng": 0,
    }
    for config, detail in (
        ([0.1], "needs a 'config' object"),
        ({"sampler": "uniform"}, "invalid pipeline config"),
    ):
        with pytest.raises(DaemonError, match=detail) as refused:
            _client(daemon)._request({**frame, "config": config})
        assert refused.value.code == "invalid-spec"
    assert _client(daemon).stats()["counters"]["pipeline_runs"] == 0


# -- CLI wiring ---------------------------------------------------------------


def test_cli_reconstruct_through_daemon(daemon, capsys):
    from repro.cli import main

    code = main(
        [
            "reconstruct",
            "--qubits", "6",
            "--resolution", "6", "12",
            "--fraction", "0.3",
            "--daemon", str(daemon.socket_path),
        ]
    )
    assert code == 0
    assert "NRMSE" in capsys.readouterr().out
    # The dense ground truth went through the daemon.
    assert _client(daemon).stats()["counters"]["computed"] >= 1


def test_cli_pipeline_through_daemon(daemon, capsys):
    from repro.cli import main

    code = main(
        [
            "pipeline",
            "--qubits", "6",
            "--resolution", "6", "12",
            "--fraction", "0.3",
            "--daemon", str(daemon.socket_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "served by: daemon" in out
    assert "cached as" in out  # integer --seed makes the run cacheable
    assert _client(daemon).stats()["counters"]["pipeline_runs"] == 1


def test_cli_cache_stats_directory_and_daemon(daemon, tmp_path, capsys):
    from repro.cli import main

    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "payload bytes" in capsys.readouterr().out
    assert main(["cache", "stats", "--socket", str(daemon.socket_path)]) == 0
    out = capsys.readouterr().out
    assert "daemon pid" in out and "requests" in out
    # Per-op counters from the stats op (dense + sparse + pipeline).
    assert "read-through" in out and "pipelines" in out
    assert main(["cache", "list", "--socket", str(daemon.socket_path)]) == 0
    assert "daemon" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 2  # neither --cache-dir nor --socket
    capsys.readouterr()
    # A dead socket is a clean one-line error, not a traceback.
    dead = str(tmp_path / "never-bound.sock")
    assert main(["cache", "stats", "--socket", dead]) == 2
    assert "no landscape daemon" in capsys.readouterr().out


# -- helpers ------------------------------------------------------------------


def _slow_down(monkeypatch, method: str, delay: float) -> None:
    """Make ``LandscapeGenerator.<method>`` sleep before computing, so a
    request stays in flight while followers pile up.  A ``workers=1``
    daemon computes on its request threads in this process, so the
    patch reaches its server-side generators."""
    original = getattr(LandscapeGenerator, method)

    def slow(self, *args, **kwargs):
        time.sleep(delay)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LandscapeGenerator, method, slow)


def _unspecable(point) -> float:
    """A plain cost closure: no ``cache_spec``, so no wire form."""
    return float(np.sum(np.cos(point)))


def _unspecable_payloads():
    """``(function, grid)`` pairs with no wire form: a plain closure and
    a Tables 2-4 slice (slices are exact and run in-process)."""
    from repro.ansatz import TwoLocalAnsatz
    from repro.experiments.slices import SliceCostFunction, random_slice
    from repro.problems import sk_problem

    ansatz = TwoLocalAnsatz(sk_problem(4, seed=3).to_pauli_sum(), reps=1)
    spec = random_slice(ansatz, 4, rng=np.random.default_rng(7))
    return [
        (_unspecable, qaoa_grid(p=1, resolution=(4, 4))),
        (SliceCostFunction(ansatz, spec), spec.grid),
    ]


# -- TCP front: auth and limits ----------------------------------------------


def _tcp_tokens(tmp_path):
    import json

    tokens = tmp_path / "tokens.json"
    tokens.write_text(
        json.dumps(
            {
                "alice": "tok-alice",
                "bob": {"token": "tok-bob", "quota_bytes": 1 << 20},
                "stale": {"token": "tok-stale", "expires": 1.0},
            }
        )
    )
    return tokens


def _tcp_daemon(tmp_path, **overrides):
    kwargs = dict(
        workers=1,
        cache_dir=tmp_path / "cache",
        tcp=("127.0.0.1", 0),
        tokens_file=_tcp_tokens(tmp_path),
    )
    kwargs.update(overrides)
    daemon = LandscapeDaemon(tmp_path / "daemon.sock", **kwargs)
    daemon.start()
    return daemon


def _connect(daemon, listener: str, timeout: float = 30.0) -> socket.socket:
    if listener == "tcp":
        return socket.create_connection(daemon.tcp_address, timeout=timeout)
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(timeout)
    conn.connect(str(daemon.socket_path))
    return conn


def _send_frame(daemon, message, listener="tcp"):
    """One raw frame out, one response line back (b"" = closed)."""
    import json

    with _connect(daemon, listener) as conn:
        payload = message if isinstance(message, bytes) else json.dumps(message).encode()
        conn.sendall(payload + b"\n")
        with conn.makefile("rb") as stream:
            line = stream.readline()
    return json.loads(line) if line else None


def _listener_client(daemon, listener: str, **kwargs) -> LandscapeClient:
    """A client on either listener (TCP authenticates as alice)."""
    if listener == "tcp":
        host, port = daemon.tcp_address
        return LandscapeClient(f"tcp://{host}:{port}", token="tok-alice", **kwargs)
    return LandscapeClient(daemon.socket_path, **kwargs)


def test_tcp_requires_tokens_file(tmp_path):
    with pytest.raises(ValueError, match="tokens_file"):
        LandscapeDaemon(tmp_path / "d.sock", tcp=("127.0.0.1", 0))


@pytest.mark.parametrize("quota", [0, -1, True, 2.5])
def test_tenant_quotas_are_checked_when_loaded(tmp_path, quota):
    """A tenant byte quota is a positive integer (bools rejected), in
    the tokens file and as the daemon-wide default: a bad one stops the
    daemon from starting, instead of failing every request of the
    tenant with ``internal`` or becoming a truncated budget."""
    import json

    from repro.service.protocol import load_tokens

    tokens = tmp_path / "tokens.json"
    tokens.write_text(
        json.dumps({"alice": {"token": "tok-alice", "quota_bytes": quota}})
    )
    with pytest.raises(ValueError, match="quota_bytes"):
        load_tokens(tokens)
    with pytest.raises(ValueError, match="quota_bytes"):
        LandscapeDaemon(tmp_path / "d.sock", tokens_file=tokens)
    with pytest.raises(ValueError, match="tenant_quota_bytes"):
        LandscapeDaemon(tmp_path / "d.sock", tenant_quota_bytes=quota)


def test_one_tcp_address_parser():
    """``_parse_tcp`` reads every address form; the client's ``tcp://``
    targets go through it too."""
    from repro.service.daemon import _parse_tcp

    assert _parse_tcp(7421) == ("127.0.0.1", 7421)
    assert _parse_tcp("7421") == ("127.0.0.1", 7421)
    assert _parse_tcp(":7421") == ("127.0.0.1", 7421)
    assert _parse_tcp("tcp://h:7421") == ("h", 7421)
    for bad in ("h:", "h:x"):
        with pytest.raises(ValueError, match="numeric port"):
            _parse_tcp(bad)
    with pytest.raises(ValueError, match="numeric port"):
        LandscapeClient("tcp://h:x")


def test_cli_serve_rejects_a_bad_tcp_port_without_binding(tmp_path, capsys):
    from repro.cli import main

    socket_path = tmp_path / "serve.sock"
    code = main(
        [
            "serve",
            "--socket", str(socket_path),
            "--tcp", "127.0.0.1:http",
            "--tokens-file", str(_tcp_tokens(tmp_path)),
        ]
    )
    assert code == 2
    assert "serve:" in capsys.readouterr().out
    assert not socket_path.exists()


def test_cli_token_reaches_a_tcp_daemon(tmp_path, capsys):
    """``--token`` travels with ``--daemon tcp://``: the right token is
    served as its tenant; a wrong one is the daemon's ``auth`` error,
    not an in-process fallback."""
    from repro.cli import main

    daemon = _tcp_daemon(tmp_path)
    try:
        host, port = daemon.tcp_address
        target = f"tcp://{host}:{port}"
        args = [
            "reconstruct",
            "--qubits", "6",
            "--resolution", "6", "12",
            "--fraction", "0.3",
            "--daemon", target,
        ]
        assert main(args + ["--token", "tok-alice"]) == 0
        assert "NRMSE" in capsys.readouterr().out
        stats = LandscapeClient(target, token="tok-alice").stats()
        ops = stats["tenants"]["alice"]["ops"]
        assert ops["compute"] == 1 and ops["compute_indices"] == 1
        assert stats["counters"]["computed"] == 1

        with pytest.raises(DaemonError) as denied:
            main(args + ["--token", "wrong-token"])
        assert denied.value.code == "auth"
        stats = LandscapeClient(target, token="tok-alice").stats()
        assert stats["counters"]["computed"] == 1
    finally:
        daemon.close()


@pytest.mark.parametrize(
    "token, detail",
    [
        (None, "missing"),
        ("wrong-token", "unknown"),
        ("tok-stale", "expired"),
    ],
)
def test_bad_tokens_get_auth_errors_without_pool_work(tmp_path, token, detail):
    """Missing, wrong and expired tokens all fail with the structured
    ``auth`` code — before any compute/evaluate/tenant accounting."""
    daemon = _tcp_daemon(tmp_path)
    try:
        frame = {
            "version": 2,
            "op": "compute",
            "function": {
                "kind": "ansatz",
                "ansatz": {
                    "type": "qaoa",
                    "p": 1,
                    "num_qubits": 3,
                    "problem": {"couplings": [[0, 1, 1.0]], "fields": [], "offset": 0.0},
                },
                "noise": None,
                "shots": None,
            },
            "grid": [
                {"name": "g", "low": 0.0, "high": 1.0, "num_points": 3},
                {"name": "b", "low": 0.0, "high": 1.0, "num_points": 3},
            ],
        }
        if token is not None:
            frame["token"] = token
        response = _send_frame(daemon, frame)
        assert response["ok"] is False
        assert response["error"]["code"] == "auth"
        assert detail in response["error"]["message"]
        with daemon._counter_lock:
            counters = dict(daemon._counters)
            tenant_ops = dict(daemon._tenant_counters)
        assert counters["computed"] == 0 and counters["evaluations"] == 0
        assert tenant_ops == {}, "rejected requests must not be attributed"
    finally:
        daemon.close()


def test_presented_token_must_be_valid_even_on_unix(tmp_path):
    """A *presented* token is always checked — Unix-socket callers
    cannot silently fall back to the default tenant with a bad token."""
    daemon = _tcp_daemon(tmp_path)
    try:
        client = LandscapeClient(daemon.socket_path, fallback=False, token="nope")
        with pytest.raises(DaemonError) as denied:
            client.ping()
        assert denied.value.code == "auth"
        # ... while no token at all keeps the legacy trust boundary.
        assert LandscapeClient(daemon.socket_path).ping()["tenant"] == "local"
    finally:
        daemon.close()


def test_payload_over_limit_gets_too_large_then_disconnect(tmp_path):
    daemon = _tcp_daemon(tmp_path, max_payload_bytes=2048)
    try:
        import json

        with socket.create_connection(daemon.tcp_address, timeout=30.0) as conn:
            conn.sendall(b"X" * 4096 + b"\n")
            with conn.makefile("rb") as stream:
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "too-large"
                assert stream.readline() == b"", "connection must close"
        # the daemon itself keeps serving
        assert _send_frame(daemon, {"version": 2, "op": "ping", "token": "tok-alice"})["ok"]
    finally:
        daemon.close()


def test_idle_connections_are_disconnected(tmp_path):
    daemon = _tcp_daemon(tmp_path, idle_timeout=0.4)
    try:
        with socket.create_connection(daemon.tcp_address, timeout=30.0) as conn:
            start = time.monotonic()
            with conn.makefile("rb") as stream:
                assert stream.readline() == b"", "idle connection must be dropped"
            assert time.monotonic() - start < 10.0
        assert _send_frame(daemon, {"version": 2, "op": "ping", "token": "tok-alice"})["ok"]
    finally:
        daemon.close()


def test_connection_cap_sheds_with_retryable_error(tmp_path):
    import json

    daemon = _tcp_daemon(tmp_path, max_connections=1)
    try:
        with socket.create_connection(daemon.tcp_address, timeout=30.0) as held:
            held.sendall(
                json.dumps({"version": 2, "op": "ping", "token": "tok-alice"}).encode()
                + b"\n"
            )
            held_stream = held.makefile("rb")
            assert json.loads(held_stream.readline())["ok"] is True

            response = _send_frame(daemon, {"version": 2, "op": "ping", "token": "tok-alice"})
            assert response["ok"] is False
            assert response["error"]["code"] == "overloaded"
            assert response["error"]["retryable"] is True
            held_stream.close()
        # capacity frees up once the held connection goes away
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            retry = _send_frame(daemon, {"version": 2, "op": "ping", "token": "tok-alice"})
            if retry and retry.get("ok"):
                break
            time.sleep(0.05)
        else:
            pytest.fail("shed load never recovered")
    finally:
        daemon.close()


@pytest.mark.parametrize("listener", ["unix", "tcp"])
def test_legacy_pickle_op_over_tcp_is_refused(tmp_path, ansatz, listener):
    """An unversioned (v1, pickled-task) frame never reaches a handler on
    either listener: structured ``unsupported-version``, nothing
    unpickled, no op counter moved."""
    import base64
    import pickle

    daemon = _tcp_daemon(tmp_path)
    try:
        task = base64.b64encode(pickle.dumps({"ansatz": ansatz})).decode()
        response = _send_frame(daemon, {"op": "evaluate", "task": task}, listener)
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-version"
        with daemon._counter_lock:
            counters = dict(daemon._counters)
            tenant_ops = dict(daemon._tenant_counters)
        assert counters["evaluations"] == 0 and counters["computed"] == 0
        assert tenant_ops == {}, "a refused frame must not be attributed"
    finally:
        daemon.close()


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("listener", ["unix", "tcp"])
def test_tcp_client_refuses_unspecable_payloads_client_side(
    tmp_path, listener, fallback
):
    """A cost function that cannot describe itself declaratively (a
    plain closure, a slice) has no wire form on either transport:
    ``fallback=False`` refuses it client-side with ``invalid-spec``,
    ``fallback=True`` computes it in-process like a request with no
    daemon.  Nothing is sent."""
    daemon = _tcp_daemon(tmp_path)
    try:
        client = _listener_client(daemon, listener, fallback=fallback)
        for count, (function, grid) in enumerate(_unspecable_payloads(), 1):
            if fallback:
                landscape = client.get_or_compute(function, grid)
                local = LandscapeGenerator(function, grid).grid_search()
                np.testing.assert_allclose(
                    landscape.values, local.values, rtol=0.0, atol=1e-10
                )
                assert client.fallbacks == count
                assert client.last_served_by == "local"
            else:
                with pytest.raises(DaemonError) as refused:
                    client.get_or_compute(function, grid)
                assert refused.value.code == "invalid-spec"
                assert client.fallbacks == 0
        with daemon._counter_lock:
            assert daemon._counters["computed"] == 0
            assert daemon._counters["requests"] == 0
    finally:
        daemon.close()

