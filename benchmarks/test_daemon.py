"""Benchmark: the landscape daemon (persistent pool + shared cache).

Acceptance bars for the daemon subsystem:

- a **warm daemon request** (socket round trip to an already-running
  daemon whose pool forked at startup and whose store holds the
  landscape) must beat a **cold ``ShardedExecutor`` run** of the same
  request (per-call pool startup + full computation) — the whole point
  of keeping a daemon resident;
- **concurrent identical requests compute once**: N clients asking for
  the same spec at the same time must trigger exactly one computation
  (single-flight dedup), all of them receiving the same landscape;
- the **TCP front is not a tax**: a warm authenticated TCP request
  (declarative v2 spec, typed codecs, asyncio listener) must stay
  within 1.3x of the warm Unix-socket request for the same spec — the
  network front adds framing, not a second service path.

Values served by the daemon must match the cold computation to 1e-10 —
enforced always, like every equivalence check in this suite.  The
wall-clock bar is skipped under CI/``OSCAR_BENCH_SMOKE=1`` (shared
runners are too noisy for hard timing gates — the same policy as
``test_sharded_execution``); the dedup gate is behavioral and holds
everywhere.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from _util import emit, format_table
from repro.ansatz import QaoaAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut
from repro.service import LandscapeClient, LandscapeDaemon

SMOKE = bool(os.environ.get("OSCAR_BENCH_SMOKE") or os.environ.get("CI"))
NUM_QUBITS = 8 if SMOKE else 10
RESOLUTION = (20, 40) if SMOKE else (50, 100)  # Table 1: 50 x 100
WORKERS = min(4, max(2, os.cpu_count() or 2))


def _table1_setup():
    problem = random_3_regular_maxcut(NUM_QUBITS, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=RESOLUTION)
    return ansatz, grid


def test_warm_daemon_request_beats_cold_sharded_startup(tmp_path):
    """A warm daemon request (persistent pool, warm store) is faster
    than paying ShardedExecutor pool startup + compute per call."""
    ansatz, grid = _table1_setup()
    function = cost_function(ansatz)

    daemon = LandscapeDaemon(
        tmp_path / "daemon.sock",
        workers=WORKERS,
        cache_dir=tmp_path / "cache",
    )
    daemon.start()
    try:
        client = LandscapeClient(daemon.socket_path, fallback=False)
        # Prime: fork-free from here on — the pool came up with the
        # daemon, and this request populates the shared store.
        primed = client.get_or_compute(function, grid, label="table1")

        warm_seconds = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            served = client.get_or_compute(function, grid, label="table1")
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert client.last_served_by == "daemon-hit"

        # Cold baseline: what every request costs without a daemon —
        # a fresh pool per call, then the same computation.
        cold_seconds = float("inf")
        for _ in range(2):
            cold_generator = LandscapeGenerator(function, grid, workers=WORKERS)
            start = time.perf_counter()
            cold = cold_generator.grid_search(label="table1")
            cold_seconds = min(cold_seconds, time.perf_counter() - start)
    finally:
        daemon.close()

    # (a) equivalence, always enforced: the daemon serves the same
    # landscape the cold path computes.
    difference = float(np.abs(served.values - cold.values).max())
    assert difference <= 1e-10, (
        f"daemon-served landscape deviates from cold computation by "
        f"{difference:.3e}"
    )
    np.testing.assert_array_equal(served.values, primed.values)

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    emit(
        "daemon_request_latency",
        format_table(
            ["metric", "value"],
            [
                ("qubits", NUM_QUBITS),
                ("grid shape", f"{RESOLUTION[0]}x{RESOLUTION[1]}"),
                ("workers", WORKERS),
                ("cold sharded run (s)", cold_seconds),
                ("warm daemon request (s)", warm_seconds),
                ("speedup", speedup),
                ("smoke run", SMOKE),
            ],
        ),
    )
    # (b) the wall-clock bar, outside CI only (noisy-runner policy).
    if SMOKE:
        return
    assert warm_seconds < cold_seconds, (
        f"warm daemon request ({warm_seconds:.4f}s) is not faster than "
        f"a cold sharded run ({cold_seconds:.4f}s)"
    )


def test_concurrent_identical_requests_compute_once(tmp_path, monkeypatch):
    """Single-flight dedup: four concurrent identical requests cost one
    computation, not four (behavioral gate, enforced everywhere)."""
    grid = qaoa_grid(p=1, resolution=(4, 8))
    function = cost_function(QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1))
    delay = 0.5
    clients = 4

    # Hold every computation in flight for ``delay`` seconds.  The
    # workers=1 daemon computes on its request threads in this process,
    # so the patch reaches its server-side generators.
    local_grid_search = LandscapeGenerator.local_grid_search

    def slow_grid_search(self, *args, **kwargs):
        time.sleep(delay)
        return local_grid_search(self, *args, **kwargs)

    monkeypatch.setattr(LandscapeGenerator, "local_grid_search", slow_grid_search)

    daemon = LandscapeDaemon(
        tmp_path / "daemon.sock", workers=1, cache_dir=tmp_path / "cache"
    )
    daemon.start()
    try:
        results: list = []
        errors: list = []
        barrier = threading.Barrier(clients)

        def request():
            try:
                barrier.wait(timeout=30.0)
                client = LandscapeClient(daemon.socket_path, fallback=False)
                results.append(
                    client.get_or_compute(function, grid, label="dedup")
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        start = time.perf_counter()
        threads = [threading.Thread(target=request) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        elapsed = time.perf_counter() - start

        assert not errors, errors
        assert len(results) == clients
        for landscape in results[1:]:
            np.testing.assert_array_equal(landscape.values, results[0].values)

        counters = LandscapeClient(daemon.socket_path).stats()["counters"]
    finally:
        daemon.close()

    emit(
        "daemon_request_dedup",
        format_table(
            ["metric", "value"],
            [
                ("concurrent clients", clients),
                ("compute delay (s)", delay),
                ("wall clock, all clients (s)", elapsed),
                ("computations", counters["computed"]),
                ("deduped", counters["deduped"]),
                ("store hits", counters["hits"]),
            ],
        ),
    )
    # The gate: one computation total; everyone else joined the flight
    # or hit the store the leader had just populated.
    assert counters["computed"] == 1, counters
    assert counters["deduped"] + counters["hits"] == clients - 1, counters
    # And the wall clock reflects sharing: four 0.5s computations done
    # serially would cost >= 2s; deduped they cost about one delay.
    assert elapsed < clients * delay, (
        f"{clients} deduplicated requests took {elapsed:.2f}s - longer "
        f"than {clients} serial computations"
    )


def test_warm_tcp_request_within_1_3x_of_unix_socket(tmp_path):
    """The authenticated TCP front serves a warm request within 1.3x of
    the Unix-socket path (equivalence always; timing bar outside CI)."""
    import json

    ansatz, grid = _table1_setup()
    function = cost_function(ansatz)
    tokens = tmp_path / "tokens.json"
    tokens.write_text(json.dumps({"bench": "bench-token"}))

    daemon = LandscapeDaemon(
        tmp_path / "daemon.sock",
        workers=WORKERS,
        cache_dir=tmp_path / "cache",
        tcp=("127.0.0.1", 0),
        tokens_file=tokens,
    )
    daemon.start()
    try:
        host, port = daemon.tcp_address
        unix_client = LandscapeClient(daemon.socket_path, fallback=False)
        tcp_client = LandscapeClient(
            f"tcp://{host}:{port}", fallback=False, token="bench-token"
        )
        # Prime both namespaces ("local" for the anonymous Unix client,
        # "bench" for the TCP tenant) so every timed request is a warm
        # store hit and the comparison is pure transport.
        unix_client.get_or_compute(function, grid, label="table1")
        tcp_client.get_or_compute(function, grid, label="table1")

        unix_seconds = float("inf")
        tcp_seconds = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            via_unix = unix_client.get_or_compute(function, grid, label="table1")
            unix_seconds = min(unix_seconds, time.perf_counter() - start)
            assert unix_client.last_served_by == "daemon-hit"

            start = time.perf_counter()
            via_tcp = tcp_client.get_or_compute(function, grid, label="table1")
            tcp_seconds = min(tcp_seconds, time.perf_counter() - start)
            assert tcp_client.last_served_by == "daemon-hit"
    finally:
        daemon.close()

    # Equivalence, always enforced: both transports serve the same
    # landscape (one computation, shared across tenants by key).
    np.testing.assert_array_equal(via_tcp.values, via_unix.values)

    overhead = tcp_seconds / max(unix_seconds, 1e-9)
    emit(
        "daemon_tcp_overhead",
        format_table(
            ["metric", "value"],
            [
                ("qubits", NUM_QUBITS),
                ("grid shape", f"{RESOLUTION[0]}x{RESOLUTION[1]}"),
                ("warm unix request (s)", unix_seconds),
                ("warm tcp request (s)", tcp_seconds),
                ("tcp/unix overhead", overhead),
                ("smoke run", SMOKE),
            ],
        ),
    )
    # The wall-clock bar, outside CI only (noisy-runner policy).
    if SMOKE:
        return
    assert overhead <= 1.3, (
        f"warm TCP request ({tcp_seconds:.4f}s) exceeds 1.3x the warm "
        f"Unix-socket request ({unix_seconds:.4f}s): {overhead:.2f}x"
    )

