"""Benchmark: the landscape service layer (sharding + the store).

Acceptance bars for the service subsystem:

- sharded generation must reproduce the single-process batched engine
  on a Table-1-sized grid (<= 1e-10, enforced always) and — with at
  least two cores available — run faster than single-process
  (wall-clock bar > 1x, best of three runs per side);
- a warm cache hit on the content-addressed landscape store must be
  >= 50x faster than recomputing the same Table-1-sized grid, and
  bit-identical to the computed landscape.

Under CI (or ``OSCAR_BENCH_SMOKE=1``) the benchmarks run as smoke tests
on reduced grids: equivalence checks are enforced either way, but the
wall-clock bars are skipped because shared runners are too noisy for a
hard timing gate (the same policy as ``test_batched_execution``).  The
sharded-speedup bar additionally requires a multi-core machine — a
process pool cannot beat one process on one core.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _util import emit, format_table
from repro.ansatz import QaoaAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut
from repro.service import LandscapeStore

SMOKE = bool(os.environ.get("OSCAR_BENCH_SMOKE") or os.environ.get("CI"))
MULTICORE = (os.cpu_count() or 1) >= 2
NUM_QUBITS = 8 if SMOKE else 10
RESOLUTION = (20, 40) if SMOKE else (50, 100)  # Table 1: 50 x 100
WORKERS = min(4, max(2, os.cpu_count() or 2))
#: Wall-clock bar for the warm-cache hit vs recomputing the grid.  The
#: dev box measures ~100-160x depending on load (the compute side kept
#: getting faster since the bar was set at 100); 50x keeps a real
#: file-load-vs-compute gate without flaking on a busy machine.
CACHE_SPEEDUP_BAR = 50.0


def _table1_setup():
    problem = random_3_regular_maxcut(NUM_QUBITS, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=RESOLUTION)
    return ansatz, grid


def _best_of_three(generator):
    """``(landscape, seconds)`` of the fastest of three grid searches."""
    seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        landscape = generator.grid_search()
        seconds = min(seconds, time.perf_counter() - start)
    return landscape, seconds


def test_sharded_grid_search_speedup():
    """Sharded generation matches single-process to machine precision
    and (given cores) beats it on a Table-1-sized grid."""
    ansatz, grid = _table1_setup()
    single = LandscapeGenerator(cost_function(ansatz), grid)
    sharded = LandscapeGenerator(
        cost_function(ansatz), grid, workers=WORKERS
    )
    single.evaluate_indices(range(4))  # warm caches
    sharded.evaluate_indices(range(4))  # includes pool/fork warmup

    # Best of three per side, like the cache gate below: one slow run on
    # a busy box must not decide a sub-second comparison.
    reference, single_seconds = _best_of_three(single)
    landscape, sharded_seconds = _best_of_three(sharded)

    # (a) equivalence with the single-process engine, always enforced.
    difference = float(np.abs(landscape.values - reference.values).max())
    assert difference <= 1e-10, (
        f"sharded grid search deviates from single-process by "
        f"{difference:.3e}"
    )

    speedup = single_seconds / sharded_seconds
    emit(
        "sharded_execution",
        format_table(
            ["metric", "value"],
            [
                ("qubits", NUM_QUBITS),
                ("grid shape", f"{RESOLUTION[0]}x{RESOLUTION[1]}"),
                ("workers", WORKERS),
                ("cores available", os.cpu_count() or 1),
                ("single-process (s)", single_seconds),
                ("sharded (s)", sharded_seconds),
                ("speedup", speedup),
                ("max |sharded - single|", difference),
                ("smoke run", SMOKE),
            ],
        ),
    )
    # (b) the > 1x wall-clock bar: outside CI only (noisy runners), and
    # only with real parallel hardware — a pool cannot beat one process
    # on a single core.
    if SMOKE or not MULTICORE:
        return
    assert speedup > 1.0, (
        f"sharded generation {speedup:.2f}x is not faster than "
        f"single-process with {WORKERS} workers on "
        f"{os.cpu_count()} cores"
    )


def test_warm_cache_hit_speedup(tmp_path):
    """A warm store hit is a file load: >= 50x faster than recompute
    and bit-identical to the computed landscape."""
    ansatz, grid = _table1_setup()
    store = LandscapeStore(tmp_path / "landscapes")
    generator = LandscapeGenerator(cost_function(ansatz), grid, store=store)

    start = time.perf_counter()
    computed = generator.grid_search(label="table1")
    compute_seconds = time.perf_counter() - start
    assert store.misses == 1 and store.hits == 0

    # Best of three hits: the bar compares a sub-5ms file load against
    # a sub-second compute, so shield the gate from one slow read.
    hit_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        served = generator.grid_search(label="table1")
        hit_seconds = min(hit_seconds, time.perf_counter() - start)
    assert store.misses == 1 and store.hits == 3

    # (a) a hit serves the exact artifact, always enforced.
    np.testing.assert_array_equal(served.values, computed.values)
    assert served.label == "table1"
    assert served.circuit_executions == grid.size

    speedup = compute_seconds / max(hit_seconds, 1e-9)
    emit(
        "landscape_store_cache",
        format_table(
            ["metric", "value"],
            [
                ("qubits", NUM_QUBITS),
                ("grid shape", f"{RESOLUTION[0]}x{RESOLUTION[1]}"),
                ("cold compute (s)", compute_seconds),
                ("warm hit (s)", hit_seconds),
                ("hit speedup", speedup),
                ("payload bytes", store.total_bytes()),
                ("smoke run", SMOKE),
            ],
        ),
    )
    # (b) the >= 50x bar, outside CI only (same timing-gate policy).
    if SMOKE:
        return
    assert speedup >= CACHE_SPEEDUP_BAR, (
        f"warm cache hit only {speedup:.1f}x faster than recompute "
        f"(bar: {CACHE_SPEEDUP_BAR}x)"
    )
