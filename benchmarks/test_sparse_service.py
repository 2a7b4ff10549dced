"""Benchmark: daemon-side sparse evaluation and the one-request pipeline.

Acceptance bars for the sparse service path (ISSUE 7):

- a **warm-daemon sparse request** (Table-1-sized index set answered by
  read-through from the daemon's cached dense landscape) must be at
  least **3x faster** than a **cold client-local sharded evaluation**
  of the same index set (the in-process sharded compute on the
  process's warm pool);
- the **pipeline op's trajectory is bit-identical** to the
  client-composed sample → evaluate → reconstruct → optimize sequence
  under the parity rng regime (daemon workers=1, same integer sample
  seed both sides);
- one **pipeline request's wall clock** stays within **1.2x** of the
  sum of its server-side stage timings — the socket round trip must
  not dominate the work it carries.

Value equivalence is enforced always; the wall-clock bars are skipped
under CI/``OSCAR_BENCH_SMOKE=1`` (noisy shared runners — the same
policy as every other benchmark in this suite).
"""

from __future__ import annotations

import os
import time

import numpy as np

from _util import emit, format_table
from repro.ansatz import QaoaAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut
from repro.service import LandscapeClient, LandscapeDaemon, PipelineConfig

SMOKE = bool(os.environ.get("OSCAR_BENCH_SMOKE") or os.environ.get("CI"))
NUM_QUBITS = 8 if SMOKE else 10
RESOLUTION = (20, 40) if SMOKE else (50, 100)  # Table 1: 50 x 100
SAMPLING_FRACTION = 0.05  # paper-scale sparse request (~250 points full size)
WORKERS = min(4, max(2, os.cpu_count() or 2))


def _table1_setup():
    problem = random_3_regular_maxcut(NUM_QUBITS, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=RESOLUTION)
    return ansatz, grid


def test_warm_sparse_request_beats_cold_sharded_evaluation(tmp_path):
    """Read-through sparse evaluation vs cold client-local sharding."""
    ansatz, grid = _table1_setup()
    function = cost_function(ansatz)
    rng = np.random.default_rng(7)
    flat_indices = rng.choice(
        grid.size, size=int(SAMPLING_FRACTION * grid.size), replace=False
    )

    daemon = LandscapeDaemon(
        tmp_path / "daemon.sock",
        workers=WORKERS,
        cache_dir=tmp_path / "cache",
    )
    daemon.start()
    try:
        client = LandscapeClient(daemon.socket_path, fallback=False)
        generator = LandscapeGenerator(function, grid, daemon=client)
        # Prime the dense landscape: subsequent exact sparse requests
        # answer from the store without touching the pool.
        generator.grid_search(label="table1")

        warm_seconds = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            served = generator.evaluate_indices(flat_indices)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert client.last_served_by == "daemon-readthrough"

        # Cold baseline: what the sampling loop costs without a daemon
        # — the subset evaluation, sharded in-process on the process's
        # warm pool.
        cold_seconds = float("inf")
        for _ in range(2):
            cold_generator = LandscapeGenerator(function, grid, workers=WORKERS)
            start = time.perf_counter()
            cold = cold_generator.evaluate_indices(flat_indices)
            cold_seconds = min(cold_seconds, time.perf_counter() - start)

        counters = client.stats()["counters"]
    finally:
        daemon.close()

    # (a) equivalence, always enforced.
    difference = float(np.abs(np.asarray(served) - np.asarray(cold)).max())
    assert difference <= 1e-10, (
        f"daemon-served sparse values deviate from cold evaluation by "
        f"{difference:.3e}"
    )
    assert counters["sparse_hits"] >= 5, counters

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    emit(
        "sparse_request_latency",
        format_table(
            ["metric", "value"],
            [
                ("qubits", NUM_QUBITS),
                ("grid shape", f"{RESOLUTION[0]}x{RESOLUTION[1]}"),
                ("index set size", int(flat_indices.size)),
                ("workers", WORKERS),
                ("cold sharded evaluation (s)", cold_seconds),
                ("warm sparse request (s)", warm_seconds),
                ("speedup", speedup),
                ("smoke run", SMOKE),
            ],
        ),
    )
    # (b) the wall-clock bar, outside CI only (noisy-runner policy).
    if SMOKE:
        return
    assert speedup >= 3.0, (
        f"warm sparse request ({warm_seconds:.4f}s) is only {speedup:.1f}x "
        f"faster than a cold sharded evaluation ({cold_seconds:.4f}s); "
        f"the bar is 3x"
    )


def test_pipeline_op_trajectory_and_overhead(tmp_path):
    """Bit-identical daemon pipeline + bounded transport overhead."""
    ansatz, grid = _table1_setup()
    config = PipelineConfig(fraction=SAMPLING_FRACTION, optimizer="cobyla")

    daemon = LandscapeDaemon(tmp_path / "daemon.sock", workers=1)
    daemon.start()
    try:
        client = LandscapeClient(daemon.socket_path, fallback=False)
        daemon_function = cost_function(
            ansatz, shots=128, rng=np.random.default_rng(7)
        )
        generator = LandscapeGenerator(
            daemon_function, grid, daemon=client
        )
        start = time.perf_counter()
        served = generator.run_pipeline(config, sample_rng=3)
        request_seconds = time.perf_counter() - start
    finally:
        daemon.close()

    # Client-composed baseline: the same stages, run locally with
    # identically seeded generators (parity regime: workers=1, the
    # function's rng threaded through in order).
    local_function = cost_function(
        ansatz, shots=128, rng=np.random.default_rng(7)
    )
    local = LandscapeGenerator(local_function, grid).run_pipeline(
        config, sample_rng=3
    )

    # (a) bit-identity, always enforced: samples, values, landscape and
    # the full optimizer trajectory.
    np.testing.assert_array_equal(served.flat_indices, local.flat_indices)
    np.testing.assert_array_equal(served.values, local.values)
    np.testing.assert_array_equal(
        served.landscape.values, local.landscape.values
    )
    np.testing.assert_array_equal(
        served.optimization.path, local.optimization.path
    )
    assert served.optimization.num_queries == local.optimization.num_queries

    stage_seconds = served.total_stage_seconds
    overhead = request_seconds / max(stage_seconds, 1e-9)
    emit(
        "pipeline_request_overhead",
        format_table(
            ["metric", "value"],
            [
                ("qubits", NUM_QUBITS),
                ("grid shape", f"{RESOLUTION[0]}x{RESOLUTION[1]}"),
                ("samples", int(served.report.num_samples)),
                ("optimizer queries", int(served.optimization.num_queries)),
                ("sample stage (s)", served.timings["sample"]),
                ("evaluate stage (s)", served.timings["evaluate"]),
                ("reconstruct stage (s)", served.timings["reconstruct"]),
                ("optimize stage (s)", served.timings["optimize"]),
                ("sum of stages (s)", stage_seconds),
                ("request wall clock (s)", request_seconds),
                ("request / stages", overhead),
                ("smoke run", SMOKE),
            ],
        ),
    )
    # (b) the transport-overhead bar, outside CI only.
    if SMOKE:
        return
    assert overhead <= 1.2, (
        f"one pipeline request took {request_seconds:.3f}s against "
        f"{stage_seconds:.3f}s of server-side work ({overhead:.2f}x); "
        f"the bar is 1.2x"
    )
