"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`Tracer` wraps public functions of the program's modules (the
list is in :meth:`Tracer.install`) so each call records a span: name,
start, end, parent span, operation id and process id, plus a few counts
read from the call's arguments and result.  Spans stay in memory and are
analysed when the run ends; pool workers append theirs to one file per
process under the trace directory after every shard, and the parent
reads them back.

Operation ids cross the daemon boundary by content: the client-side
wrapper of ``write_message`` files the digest of each request frame
under the calling operation, and the daemon-side wrapper of
``handle_line`` looks the same digest up.  Pool-worker spans that did
not inherit an operation at fork time (a daemon's persistent pool) are
attached to the ``service.shards.run`` span whose interval contains
them.

Wrappers cost one attribute test while the tracer is disabled; pool
workers test for a flag file instead, since a forked worker cannot see
the parent's attribute change.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict, deque
from pathlib import Path

_current = contextvars.ContextVar("oscarbench_span", default=None)
_op = contextvars.ContextVar("oscarbench_op", default=None)
_side = contextvars.ContextVar("oscarbench_side", default="client")

# Span tuple layout.
ID, PARENT, OP, NAME, START, END, PID, ATTRS = range(8)


def _frame_digest(data: bytes) -> int:
    return hash(data)


def _rows(batch) -> int:
    """Rows of a point batch (a single 1-D point counts as one)."""
    shape = getattr(batch, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(batch)


class Tracer:
    """In-memory span recorder plus the instrumentation that feeds it."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.flag = self.trace_dir / "on"
        self.enabled = False
        self.pid = os.getpid()
        self.worker_pid: int | None = None
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._pending: dict[int, deque] = defaultdict(deque)
        self._pending_lock = threading.Lock()

    # -- switching -----------------------------------------------------------

    def enable(self) -> None:
        self.flag.touch()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.flag.unlink(missing_ok=True)

    @staticmethod
    def operation(op_id):
        """Context-variable token marking the calling thread's operation."""
        return _op.set(op_id)

    @staticmethod
    def end_operation(token) -> None:
        _op.reset(token)

    # -- recording -------------------------------------------------------------

    def _new_id(self) -> int:
        return (os.getpid() << 32) | next(self._ids)

    def _call(self, name, original, args, kwargs, describe):
        span_id = self._new_id()
        parent = _current.get()
        token = _current.set(span_id)
        start = time.perf_counter_ns()
        try:
            result = original(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _current.reset(token)
        attrs = describe(args, kwargs, result) if describe is not None else None
        self.spans.append(
            (span_id, parent, _op.get(), name, start, end, os.getpid(), attrs)
        )
        return result

    def _wrap(self, owner, attr: str, name=None, describe=None, factory=None):
        """Replace ``owner.attr`` with a span-recording wrapper (or with
        ``factory(original)`` for wrappers that need more than a span)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        if factory is not None:
            wrapper = factory(original)
        else:
            tracer = self

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                return tracer._call(name, original, args, kwargs, describe)

        wrapper = functools.wraps(original)(wrapper)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    # -- instrumentation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the program's layer entry points (before any pool forks)."""
        from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz
        from repro.cs.engine import ReconstructionEngine
        from repro.landscape import generator as generator_module
        from repro.landscape.interpolate import InterpolatedLandscape
        from repro.landscape.landscape import Landscape
        from repro.mitigation.zne import ZneCostFunction
        from repro.quantum.batched_density import BatchedDensityMatrix
        from repro.service import client as client_module
        from repro.service import daemon as daemon_module
        from repro.service import shards as shards_module
        from repro.service.store import LandscapeStore

        def rows(args, kwargs, result):
            return {"rows": _rows(args[1])}

        for ansatz in (QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz):
            self._wrap(ansatz, "expectation_many", "ansatz.expectation_many", rows)
            self._wrap(ansatz, "statevector_many", "quantum.statevector", rows)
        self._wrap(
            QaoaAnsatz, "expectation_many_scaled", "ansatz.expectation_many", rows
        )

        def density(args, kwargs, result):
            rho = args[0]
            return {"rows": int(rho.batch_size), "bytes": int(rho.data.nbytes)}

        self._wrap(BatchedDensityMatrix, "evolve_circuits", "quantum.density", density)

        def zne(args, kwargs, result):
            points = _rows(args[1])
            return {"points": points, "rows": points * len(args[0].config.scale_factors)}

        self._wrap(ZneCostFunction, "many", "mitigation.zne", zne)

        def chunks(args, kwargs, result):
            function, points = args[0], args[1]
            batch_size = args[2] if len(args) > 2 else kwargs.get("batch_size")
            count = _rows(points)
            if getattr(function, "many", None) is None:
                return {"points": count, "chunks": count}
            chunk = generator_module.resolve_batch_size(function, batch_size)
            return {"points": count, "chunks": math.ceil(count / chunk) if count else 0}

        # shards imported the function by name, so both references change.
        for module in (generator_module, shards_module):
            self._wrap(
                module,
                "evaluate_points_chunked",
                "landscape.generator.evaluate_points_chunked",
                chunks,
            )

        def shard_plan(args, kwargs, result):
            executor, points = args[0], args[2]
            plan = shards_module.plan_shards(_rows(points), executor.shard_points)
            return {"shards": len(plan), "workers": executor.workers}

        self._wrap(
            shards_module.ShardedExecutor, "run", "service.shards.run", shard_plan
        )
        self._wrap(shards_module, "_run_function_shard", factory=self._worker_factory)

        def got(args, kwargs, result):
            return {"hit": result is not None}

        def written(args, kwargs, result):
            store, key = args[0], result
            size = 0
            for path in (store._payload_path(key), store._manifest_path(key)):
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
            return {"bytes": size}

        self._wrap(LandscapeStore, "get", "service.store.get", got)
        self._wrap(LandscapeStore, "put", "service.store.put", written)
        self._wrap(LandscapeStore, "invalidate", "service.store.invalidate")

        # The daemon module imported these protocol helpers by name.
        for helper in (
            "function_from_spec",
            "grid_from_spec",
            "ansatz_from_spec",
            "noise_from_spec",
            "decode_array",
            "rng_from_state",
        ):
            self._wrap(daemon_module, helper, "service.protocol.decode")
        self._wrap(
            daemon_module.LandscapeDaemon, "_authenticate", "service.protocol.auth"
        )
        self._wrap(
            daemon_module.LandscapeDaemon, "handle_line", factory=self._handle_factory
        )
        self._wrap(client_module, "write_message", factory=self._write_factory)
        self._wrap(
            client_module.LandscapeClient, "_request", "service.client.request"
        )
        self._wrap(Landscape, "from_bytes", factory=self._decode_factory)

        def solved(args, kwargs, result):
            return {
                "problems": len(result),
                "iterations": sum(int(solution.iterations) for _, solution in result),
                "converged": sum(bool(solution.converged) for _, solution in result),
            }

        self._wrap(ReconstructionEngine, "solve", "cs.engine.solve", solved)
        self._wrap(InterpolatedLandscape, "__call__", "landscape.interpolate")

    # -- wrappers that need more than a span -----------------------------------

    def _worker_factory(self, original):
        """Pool-worker entry: spans go to a per-process file per shard."""
        tracer = self

        def wrapper(task):
            if os.getpid() == tracer.pid:  # a single shard runs inline
                if not tracer.enabled:
                    return original(task)
                return tracer._call("service.shards.worker", original, (task,), {}, None)
            if tracer.worker_pid != os.getpid():
                # First task in a forked worker: drop the parent's spans.
                tracer.spans = []
                tracer.worker_pid = os.getpid()
            tracer.enabled = tracer.flag.exists()
            if not tracer.enabled:
                return original(task)
            result = tracer._call("service.shards.worker", original, (task,), {}, None)
            tracer._flush_worker()
            return result

        return wrapper

    def _flush_worker(self) -> None:
        path = self.trace_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def _write_factory(self, original):
        """Client side: file the frame digest under the calling operation."""
        tracer = self

        def wrapper(stream, message):
            if tracer.enabled and _op.get() is not None:
                digest = _frame_digest(json.dumps(message).encode("utf-8"))
                with tracer._pending_lock:
                    tracer._pending[digest].append((_op.get(), _current.get()))
            return original(stream, message)

        return wrapper

    def _handle_factory(self, original):
        """Daemon side: adopt the operation whose client sent this frame."""
        tracer = self

        def wrapper(daemon, line, *args, **kwargs):
            if not tracer.enabled:
                return original(daemon, line, *args, **kwargs)
            digest = _frame_digest(bytes(line).strip())
            with tracer._pending_lock:
                waiting = tracer._pending.get(digest)
                op_id, parent = waiting.popleft() if waiting else (None, None)
                if waiting is not None and not waiting:
                    del tracer._pending[digest]
            def sizes(args, kwargs, response):
                return {
                    "bytes_in": len(line),
                    "bytes_out": len(json.dumps(response)) + 1,
                }

            tokens = (_op.set(op_id), _current.set(parent), _side.set("daemon"))
            try:
                return tracer._call(
                    "service.daemon.handle",
                    original,
                    (daemon, line) + args,
                    kwargs,
                    sizes,
                )
            finally:
                _side.reset(tokens[2])
                _current.reset(tokens[1])
                _op.reset(tokens[0])

        return wrapper

    def _decode_factory(self, original):
        """``Landscape.from_bytes``: a client-side decode span only."""
        tracer = self

        def wrapper(cls, blob):
            if not tracer.enabled or _side.get() != "client":
                return original(cls, blob)
            return tracer._call("service.client.decode", original, (cls, blob), {}, None)

        return wrapper

    # -- gathering -------------------------------------------------------------

    def collect(self) -> list[tuple]:
        """Parent spans plus every pool worker's spans, as tuples."""
        spans = list(self.spans)
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    span = json.loads(line)
                    if span[OP] is not None:  # JSON turned the id tuple into a list
                        span[OP] = tuple(span[OP])
                    spans.append(tuple(span))
        return spans


# -- analysis --------------------------------------------------------------------


def _union_ns(intervals) -> int:
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _attach_worker_spans(spans: list[tuple]) -> list[tuple]:
    """Give orphan worker spans the ``service.shards.run`` span (and its
    operation) whose interval contains them — the latest-starting one
    when several do."""
    runs = sorted(
        (span for span in spans if span[NAME] == "service.shards.run"),
        key=lambda span: span[START],
    )
    starts = [span[START] for span in runs]
    out = []
    for span in spans:
        if span[NAME] == "service.shards.worker" and span[PARENT] is None:
            position = bisect.bisect_right(starts, span[START])
            for run in reversed(runs[:position]):
                if run[END] >= span[END]:
                    span = span[:PARENT] + (run[ID], run[OP]) + span[NAME:]
                    break
        out.append(span)
    # Spans nested inside a worker span inherit its operation.
    by_id = {span[ID]: span for span in out}

    def operation(span):
        seen = 0
        while span is not None and span[OP] is None and seen < 64:
            span = by_id.get(span[PARENT])
            seen += 1
        return None if span is None else span[OP]

    return [
        span if span[OP] is not None else span[:OP] + (operation(span),) + span[NAME:]
        for span in out
    ]


#: Span names whose self time is reported as ``<name>.self_ms``.
SELF_TIME_SPANS = (
    "ansatz.expectation_many",
    "quantum.statevector",
    "quantum.density",
    "mitigation.zne",
    "landscape.generator.evaluate_points_chunked",
    "service.shards.run",
    "service.shards.worker",
    "service.store.get",
    "service.store.put",
    "service.protocol.decode",
    "service.protocol.auth",
    "service.daemon.handle",
    "service.client.request",
    "service.client.decode",
    "cs.engine.solve",
    "landscape.interpolate",
)

DAEMON_COUNTERS = (
    "requests",
    "hits",
    "misses",
    "computed",
    "deduped",
    "sparse_hits",
    "sparse_computed",
    "sparse_deduped",
    "pipeline_runs",
    "errors",
)


def layer_metrics(
    spans: list[tuple],
    ops: list[tuple],
    stats_delta: dict[str, float] | None,
) -> dict[str, float]:
    """Per-layer metrics of the traced window.

    ``ops`` holds ``(op_id, start_ns, end_ns)`` of every operation of the
    window; spans of other operations (set-up, the untraced window) are
    ignored.  Unless the unit says otherwise, ``*_ms`` numbers are
    milliseconds per operation.
    """
    count = max(1, len(ops))
    wanted = {op_id for op_id, _, _ in ops}
    spans = [span for span in _attach_worker_spans(spans) if span[OP] in wanted]
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
        children[span[PARENT]].append(span)
    by_id = {span[ID]: span for span in spans}

    def duration_ms(span) -> float:
        return (span[END] - span[START]) / 1e6

    def outermost(name):
        """Spans of ``name`` not nested in another span of ``name``."""
        out = []
        for span in by_name[name]:
            parent, nested = by_id.get(span[PARENT]), False
            while parent is not None:
                if parent[NAME] == name:
                    nested = True
                    break
                parent = by_id.get(parent[PARENT])
            if not nested:
                out.append(span)
        return out

    def total_ms(name) -> float:
        return sum(duration_ms(span) for span in outermost(name))

    def attr_sum(name, key) -> float:
        return float(sum(span[ATTRS][key] for span in by_name[name] if span[ATTRS]))

    def per_op(value) -> float:
        return value / count

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    def median_ms(name) -> float:
        values = [duration_ms(span) for span in by_name[name]]
        return statistics.median(values) if values else 0.0

    metrics: dict[str, float] = {}

    # Engines.
    metrics["ansatz.expectation_many.busy_ms"] = per_op(total_ms("ansatz.expectation_many"))
    for layer, name in (("statevector", "quantum.statevector"), ("density", "quantum.density")):
        seconds = total_ms(name) / 1e3
        metrics[f"quantum.{layer}.rows_per_s"] = ratio(attr_sum(name, "rows"), seconds)
    metrics["quantum.density.bytes_computed"] = per_op(attr_sum("quantum.density", "bytes"))
    metrics["mitigation.zne.rows_per_point"] = ratio(
        attr_sum("mitigation.zne", "rows"), attr_sum("mitigation.zne", "points")
    )
    chunked = "landscape.generator.evaluate_points_chunked"
    metrics["landscape.generator.chunks"] = per_op(attr_sum(chunked, "chunks"))
    metrics["landscape.generator.chunk_rows"] = ratio(
        attr_sum(chunked, "points"), attr_sum(chunked, "chunks")
    )

    # Sharded execution.
    runs = by_name["service.shards.run"]
    workers = by_name["service.shards.worker"]
    run_ms = sum(duration_ms(span) for span in runs)
    busy_ms = sum(duration_ms(span) for span in workers)
    overhead_ms = 0.0
    capacity_ms = 0.0
    for run in runs:
        inside = [(span[START], span[END]) for span in children[run[ID]]
                  if span[NAME] == "service.shards.worker"]
        overhead_ms += duration_ms(run) - _union_ns(inside) / 1e6
        capacity_ms += duration_ms(run) * run[ATTRS]["workers"]
    metrics["service.shards.run_ms"] = per_op(run_ms)
    metrics["service.shards.shards_per_call"] = ratio(
        attr_sum("service.shards.run", "shards"), len(runs)
    )
    metrics["service.shards.worker_busy_ms"] = per_op(busy_ms)
    metrics["service.shards.pool_overhead_ms"] = per_op(overhead_ms)
    metrics["service.shards.parallel_efficiency"] = ratio(busy_ms, capacity_ms)

    # Store.
    gets = by_name["service.store.get"]
    puts = by_name["service.store.put"]
    evictions = [
        span for span in by_name["service.store.invalidate"]
        if by_id.get(span[PARENT], (None,) * 8)[NAME] == "service.store.put"
    ]
    metrics["service.store.get_ms"] = median_ms("service.store.get")
    metrics["service.store.put_ms"] = median_ms("service.store.put")
    metrics["service.store.gets"] = per_op(len(gets))
    metrics["service.store.puts"] = per_op(len(puts))
    metrics["service.store.evictions"] = per_op(len(evictions))
    metrics["service.store.hit_ratio"] = ratio(
        sum(1 for span in gets if span[ATTRS]["hit"]), len(gets)
    )
    metrics["service.store.bytes_written"] = per_op(attr_sum("service.store.put", "bytes"))

    # Protocol, daemon, client.
    metrics["service.protocol.decode_ms"] = per_op(total_ms("service.protocol.decode"))
    metrics["service.protocol.auth_ms"] = per_op(total_ms("service.protocol.auth"))
    metrics["service.protocol.bytes_in"] = per_op(attr_sum("service.daemon.handle", "bytes_in"))
    metrics["service.protocol.bytes_out"] = per_op(attr_sum("service.daemon.handle", "bytes_out"))
    handle_ms = total_ms("service.daemon.handle")
    metrics["service.daemon.handle_ms"] = per_op(handle_ms)
    request_ms = total_ms("service.client.request")
    metrics["service.daemon.transport_ms"] = per_op(request_ms - handle_ms) if request_ms else 0.0
    stats_delta = stats_delta or {}
    dedups = stats_delta.get("deduped", 0) + stats_delta.get("sparse_deduped", 0)
    served = dedups + sum(
        stats_delta.get(name, 0)
        for name in ("hits", "misses", "sparse_hits", "sparse_computed")
    )
    metrics["service.daemon.dedup_ratio"] = ratio(dedups, served)
    for name in DAEMON_COUNTERS:
        metrics[f"service.daemon.stats.{name}"] = per_op(stats_delta.get(name, 0))
    metrics["service.client.decode_ms"] = per_op(total_ms("service.client.decode"))

    # Reconstruction and optimization.
    metrics["cs.engine.solve_ms"] = per_op(total_ms("cs.engine.solve"))
    metrics["cs.fista_iterations"] = ratio(
        attr_sum("cs.engine.solve", "iterations"), attr_sum("cs.engine.solve", "problems")
    )
    metrics["cs.converged_ratio"] = ratio(
        attr_sum("cs.engine.solve", "converged"), attr_sum("cs.engine.solve", "problems")
    )
    queries = by_name["landscape.interpolate"]
    metrics["landscape.interpolate.query_us"] = ratio(
        sum(duration_ms(span) for span in queries) * 1e3, len(queries)
    )

    # Self time per layer.
    for name in SELF_TIME_SPANS:
        self_ms = 0.0
        for span in by_name[name]:
            inside = [(child[START], child[END]) for child in children[span[ID]]]
            self_ms += duration_ms(span) - _union_ns(inside) / 1e6
        metrics[f"{name}.self_ms"] = per_op(self_ms)

    # Coverage: the share of each operation's wall time inside any span.
    by_op: dict = defaultdict(list)
    for span in spans:
        by_op[span[OP]].append(span)
    shares = []
    for op_id, start, end in ops:
        inside = [
            (max(start, span[START]), min(end, span[END]))
            for span in by_op[op_id]
            if span[END] > start and span[START] < end
        ]
        shares.append(_union_ns(inside) / max(1, end - start))
    metrics["trace.coverage"] = statistics.median(shares) if shares else 0.0
    return metrics
