#!/usr/bin/env python3
"""The OSCAR repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 oscarbench/run.py --workload grid-cold --seed 1 --seconds 35 --trace 0
    python3 oscarbench/run.py --smoke
    python3 oscarbench/run.py --write-benchmark-json

A run imports the program from ``src/`` of the checkout it lives in,
builds its inputs from ``--seed``, sets the program up, drives one
closed loop for ``--seconds`` seconds, checks every result against
references computed in-process by the ``workers=1`` path, and prints a
metric table followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` runs half the window untraced and half traced and reports
the per-layer metrics (:data:`PER_LAYER`); layers a workload does not
exercise read 0.  The benchmark sets no BLAS or thread variables: the
program runs as its users run it, with ``workers`` equal to the core
count.  ``--smoke`` runs every workload at tiny sizes, both ways, and
checks the printed metrics.  ``--write-benchmark-json`` regenerates
``BENCHMARK.json`` from the tables below.

Working files (store, sockets, tokens, trace files) live under
``.oscarbench-work/`` in the checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import machine
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = Path(".oscarbench-work")

#: Seconds one benchmark run measures (the default of --seconds).
RUN_SECONDS = 35
#: Program set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Modules a user of the program imports to run these workloads.
PROGRAM_MODULES = (
    "repro.ansatz",
    "repro.experiments.slices",
    "repro.landscape",
    "repro.mitigation",
    "repro.problems",
    "repro.quantum",
    "repro.service",
)

WORKLOAD_WHY = {
    "grid-cold": (
        "closed loop, 1 client, in-process workers=nproc: dense ground truth "
        "(QAOA grid / ZNE slice) on fresh instances; engines and shards work, "
        "no store, protocol or FISTA"
    ),
    "oscar-loop": (
        "closed loop, 1 client, Unix-socket daemon: 5% sample, FISTA, COBYLA "
        "per request; FISTA, interpolation, sparse fan-out and store put work"
    ),
    "cache-hot": (
        "closed loop, 2 clients, authenticated TCP daemon: 75% store hits, 20% "
        "read-through sparse, 5% new specs with evictions; store, protocol, "
        "daemon work"
    ),
}

#: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_op": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_GOOD_COUNTERS = ("hits", "deduped", "sparse_hits", "sparse_deduped", "pipeline_runs")

#: name -> (unit, better).
PER_LAYER = {
    "ansatz.expectation_many.busy_ms": ("ms/op", "lower"),
    "quantum.statevector.rows_per_s": ("rows/s", "higher"),
    "quantum.density.rows_per_s": ("rows/s", "higher"),
    "quantum.density.bytes_computed": ("array-bytes/op", "lower"),
    "mitigation.zne.rows_per_point": ("rows/point", "lower"),
    "landscape.generator.chunks": ("chunks/op", "lower"),
    "landscape.generator.chunk_rows": ("rows/chunk", "higher"),
    "service.shards.run_ms": ("ms/op", "lower"),
    "service.shards.shards_per_call": ("shards/call", "lower"),
    "service.shards.worker_busy_ms": ("ms/op", "lower"),
    "service.shards.pool_overhead_ms": ("ms/op", "lower"),
    "service.shards.parallel_efficiency": ("ratio", "higher"),
    "service.store.get_ms": ("ms/call", "lower"),
    "service.store.put_ms": ("ms/call", "lower"),
    "service.store.gets": ("1/op", "lower"),
    "service.store.puts": ("1/op", "lower"),
    "service.store.evictions": ("1/op", "lower"),
    "service.store.hit_ratio": ("ratio", "higher"),
    "service.store.bytes_written": ("B/op", "lower"),
    "service.protocol.decode_ms": ("ms/op", "lower"),
    "service.protocol.auth_ms": ("ms/op", "lower"),
    "service.protocol.bytes_in": ("B/op", "lower"),
    "service.protocol.bytes_out": ("B/op", "lower"),
    "service.daemon.handle_ms": ("ms/op", "lower"),
    "service.daemon.transport_ms": ("ms/op", "lower"),
    "service.daemon.dedup_ratio": ("ratio", "higher"),
    **{
        f"service.daemon.stats.{name}": (
            "1/op",
            "higher" if name in _GOOD_COUNTERS else "lower",
        )
        for name in spans.DAEMON_COUNTERS
    },
    "service.client.decode_ms": ("ms/op", "lower"),
    "service.pipeline.sample_ms": ("ms/op", "lower"),
    "service.pipeline.evaluate_ms": ("ms/op", "lower"),
    "service.pipeline.reconstruct_ms": ("ms/op", "lower"),
    "service.pipeline.optimize_ms": ("ms/op", "lower"),
    "cs.engine.solve_ms": ("ms/op", "lower"),
    "cs.fista_iterations": ("iterations", "lower"),
    "cs.converged_ratio": ("ratio", "higher"),
    "optimizers.num_queries": ("queries/op", "lower"),
    "landscape.interpolate.query_us": ("us/query", "lower"),
    "recon_nrmse": ("nrmse", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    **{f"{name}.self_ms": ("ms/op", "lower") for name in spans.SELF_TIME_SPANS},
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` manifest, derived from the tables above."""
    return {
        "command": ["python3", "oscarbench/run.py"],
        "paths": ["oscarbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


# -- program import --------------------------------------------------------------


def import_program() -> float:
    """Import the program from this checkout's ``src/``; seconds taken.

    Exits with status 2 when the checkout holds no program (so the
    benchmark never measures some other installed copy).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"oscarbench: no program under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"oscarbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


# -- the closed loop -------------------------------------------------------------


@dataclass
class Record:
    client: int
    seq: int
    inputs: object
    start_ns: int
    end_ns: int
    result: object = None
    error: str | None = None


@dataclass
class Window:
    records: list[Record] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0
    cpu_s: float = 0.0

    @property
    def seconds(self) -> float:
        return max(1e-9, (self.end_ns - self.start_ns) / 1e9)

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / self.seconds


def closed_loop(workload, seconds: float, first_seq: int, tracer=None) -> Window:
    """Each client thread issues its next operation when the last one
    returns, until ``seconds`` have passed."""
    window = Window()
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def drive(client: int) -> None:
        seq = first_seq
        while time.perf_counter() < deadline:
            inputs = workload.inputs(client, seq)
            fallbacks = workload.client_fallbacks(client)
            token = tracer.operation((client, seq)) if tracer is not None else None
            start = time.perf_counter_ns()
            try:
                result, error = workload.op(client, inputs), None
            except Exception as exc:  # noqa: BLE001 - a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter_ns()
            if token is not None:
                tracer.end_operation(token)
            if error is None and workload.client_fallbacks(client) != fallbacks:
                error = "served in-process: no daemon answered"
            with lock:
                window.records.append(
                    Record(client, seq, inputs, start, end, result, error)
                )
            seq += 1

    threads = [
        threading.Thread(target=drive, args=(client,), name=f"client-{client}")
        for client in range(workload.clients)
    ]
    before = machine.cpu_seconds()
    window.start_ns = time.perf_counter_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.end_ns = max(
        [record.end_ns for record in window.records], default=time.perf_counter_ns()
    )
    window.cpu_s = machine.cpu_delta(before, machine.cpu_seconds())
    return window


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low, high = math.floor(position), math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- one run ---------------------------------------------------------------------


def _stats(workload) -> dict[str, float]:
    client = workload.stats_client()
    if client is None:
        return {}
    counters = client.stats()["counters"]
    return {name: float(counters.get(name, 0)) for name in spans.DAEMON_COUNTERS}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One benchmark run; returns the result object (see module doc)."""
    import_s = import_program()
    import workloads

    os.chdir(ROOT)
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = workloads.SMOKE if tiny else workloads.Sizes()
    workers = os.cpu_count() or 1
    tracer = spans.Tracer(workdir / "trace") if trace else None
    workload = workloads.WORKLOADS[name](seed, sizes, workdir, workers)
    try:
        return _measure(name, seed, seconds, workload, tracer, import_s, sizes, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _measure(name, seed, seconds, workload, tracer, import_s, sizes, tiny) -> dict:
    workers = workload.workers
    try:
        if tracer is not None:
            tracer.install()
        workload.prepare()
        setups = []
        repeats = 1 if tiny else SETUP_REPEATS
        for attempt in range(repeats):
            start = time.perf_counter()
            workload.start()
            setups.append(time.perf_counter() - start)
            if attempt < repeats - 1:
                workload.stop()
        context = machine.machine_context(ROOT, workload.workdir)
        if tracer is None:
            windows = [closed_loop(workload, seconds, 0)]
        else:
            untraced = closed_loop(workload, seconds / 2, 0)
            before = _stats(workload)
            tracer.enable()
            traced = closed_loop(workload, seconds / 2, 1_000_000, tracer)
            tracer.disable()
            after = _stats(workload)
            windows = [untraced, traced]
        peak_mib = machine.peak_rss_mib(workers)
    finally:
        workload.stop()
        if tracer is not None:
            tracer.disable()
    records = [record for window in windows for record in window.records]
    for record in records:
        if record.error is None:
            record.error = workload.check(record.client, record.inputs, record.result)
    failures = [record for record in records if record.error is not None]
    quality = workload.quality(
        [(r.client, r.inputs, r.result) for r in records if r.error is None]
    )
    main = windows[0]
    latencies = [(r.end_ns - r.start_ns) / 1e6 for r in main.records]
    table = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": main.ops_per_s,
        "latency_p50_ms": _percentile(latencies, 0.5),
        "latency_p90_ms": _percentile(latencies, 0.9),
        "cpu_ms_per_op": 1e3 * main.cpu_s / max(1, len(main.records)),
        "peak_rss_mb": peak_mib,
        "failed_ratio": len(failures) / max(1, len(records)),
        **quality,
    }
    if tracer is None:
        metrics = {
            metric: {"value": table[metric], "unit": unit}
            for metric, (unit, _, _) in END_TO_END.items()
        }
    else:
        traced_window = windows[1]
        layers = spans.layer_metrics(
            tracer.collect(),
            [
                ((r.client, r.seq), r.start_ns, r.end_ns)
                for r in traced_window.records
            ],
            {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after},
        )
        # The closing ``stats`` call counts itself as a request.
        if after:
            layers["service.daemon.stats.requests"] -= 1 / max(
                1, len(traced_window.records)
            )
        layers.update(workload.layer_metrics(traced_window.records))
        layers["recon_nrmse"] = quality.get("recon_nrmse", 0.0)
        layers["trace.overhead"] = 1.0 - traced_window.ops_per_s / untraced.ops_per_s
        metrics = {
            metric: {"value": float(layers.get(metric, 0.0)), "unit": unit}
            for metric, (unit, _) in PER_LAYER.items()
        }
    print(f"# oscarbench {name} seed={seed} trace={int(tracer is not None)}")
    print("# context " + json.dumps(context, sort_keys=True))
    print(
        f"# setup repeats={len(setups)} import_s={import_s:.4f} "
        + " ".join(f"{value:.4f}" for value in setups)
    )
    samples = len(main.records)
    for metric, value in table.items():
        unit = END_TO_END.get(metric, PER_LAYER.get(metric, ("ratio",)))[0]
        count = {
            "setup_s": len(setups),
            "recon_nrmse": min(samples, sizes.nrmse_ops),
        }.get(metric, samples)
        print(f"# {metric:<16} {value:>14.6g} {unit:<6} n={count}")
    for failure in failures[:5]:
        print(f"# failed op client={failure.client} seq={failure.seq}: {failure.error}")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }


# -- smoke mode ------------------------------------------------------------------


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced; checks that every
    named metric is printed with its unit and that no operation failed."""
    problems = []
    for name in WORKLOAD_WHY:
        for trace in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", "1",
                "--seconds", "2",
                "--trace", str(trace),
                "--tiny",
            ]
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=170
            )
            label = f"{name} trace={trace}"
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                problems.append(f"{label}: exit {completed.returncode}\n{completed.stderr}")
                continue
            result = json.loads(lines[-1])
            expected = (
                {metric: spec[0] for metric, spec in END_TO_END.items()}
                if trace == 0
                else {metric: spec[0] for metric, spec in PER_LAYER.items()}
            )
            printed = {
                metric: entry.get("unit") for metric, entry in result["metrics"].items()
            }
            if printed != expected:
                problems.append(f"{label}: metrics/units differ from the manifest")
            if not all(
                math.isfinite(entry["value"]) for entry in result["metrics"].values()
            ):
                problems.append(f"{label}: non-finite metric value")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed operations")
            if not any("failed_ratio" in line and " 0 " in line for line in lines):
                problems.append(f"{label}: failed_ratio is not printed as 0")
            print(f"{label}: attempted={result['attempted']} failed={result['failed']}")
    for problem in problems:
        print("SMOKE FAILURE " + problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
