"""The landscape daemon: one pool and one store shared by many clients.

:class:`LandscapeDaemon` is a long-running server over **one**
:class:`~repro.service.store.LandscapeStore` and its process's warm
worker pool (:func:`~repro.service.shards.worker_pool`, forked when the
daemon binds, before any serving thread starts), serving landscape
requests to any number of clients over a Unix-domain socket (and,
optionally, an authenticated TCP listener).  Every process keeps its
own warm pool, so what only the daemon adds is sharing:

- **one pool and one store across client processes**: a client process
  pays a socket round trip instead of forking a pool of its own, and a
  landscape any client computed is a store hit for every other
  (gated in ``benchmarks/test_daemon.py``);
- **single-flights identical requests**: concurrent ``compute``
  requests for the same :class:`~repro.service.store.LandscapeSpec`
  key join one in-flight computation instead of racing the pool — the
  leader computes, followers wait on the result.

Wire protocol — **JSON lines**, version 2
(:mod:`repro.service.protocol`): each request is a single
newline-terminated JSON object carrying ``"version": 2`` and an ``op``;
each response is a single JSON object with ``"ok": true`` plus
op-specific fields, or ``"ok": false`` and a structured ``"error":
{"code", "type", "message", "retryable"}`` (a malformed request gets an
error response; it never kills the server).  Tasks are declarative JSON
specs resolved server-side from the ansatz/function registry, so
nothing a client sends is ever unpickled.  A connection may issue any
number of requests sequentially.

==================  =========================================================
op                  meaning
==================  =========================================================
``ping``            liveness probe; returns pid/workers/uptime/tenant
``compute``         ``get_or_compute`` for a ``(function, grid)`` spec:
                    store hit, else single-flighted computation on the
                    warm pool; returns the landscape as base64
                    ``.npz`` plus its store key
``compute_indices`` sparse evaluation of an arbitrary flat-index set
                    (OSCAR's sampling path): bounds validation, a
                    read-through fast path answering exact requests
                    from a cached dense landscape without touching the
                    pool, and single-flight dedup keyed on (dense spec
                    key, canonicalized index set)
``pipeline``        the whole paper loop in one request: sample →
                    reconstruct (batched FISTA) → optimize, returning
                    the reconstructed landscape (plus its store key
                    when reproducible) and the full optimizer
                    trajectory with per-stage timings
``get``             store lookup by a 32-hex store key (no computation)
``evaluate``        raw (uncached) batch evaluation of an ansatz spec;
                    threads the caller's rng state through and returns
                    its final state, which is what lets the
                    daemon-backed engines register in
                    ``tests/equivalence/harness.py``
``invalidate``      drop one store entry by its 32-hex store key
``index``           list cached entries (key, label, payload_bytes,
                    access, created)
``stats``           per-op counters (dense hits, sparse read-through
                    hits, pipeline runs, dedups, errors) + store summary
                    + per-tenant accounting
``shutdown``        stop serving (the socket file is removed on close)
==================  =========================================================

**One server loop, two listeners.**  A single asyncio loop on a
background thread serves the Unix socket and the optional TCP listener
(``tcp=``) through the same session code: per-connection idle timeouts,
a max-payload limit, a connection cap that sheds load with a retryable
``overloaded`` error, a bounded executor for in-flight requests, and
graceful drain on shutdown.  Only the auth rule differs per transport.
TCP requires **bearer-token auth** (``tokens_file=``): tokens resolve to
tenants, each tenant gets its own store namespace and byte quota
(:class:`~repro.service.store.TenantStores`), and identical exact specs
still dedupe compute across tenants through the content-addressed key.
A Unix-socket request without a token operates on the default
namespace; the socket file is owner-only (``0600``), so that namespace
belongs to the user running the daemon.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import os
import threading
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, BinaryIO, Callable

import numpy as np

from ..landscape.grid import validate_flat_indices
from .protocol import (
    DEFAULT_TENANT,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    ProtocolError,
    ansatz_from_spec,
    authenticate,
    decode_array,
    encode_array,
    encode_landscape,
    encode_rng_state,
    function_from_spec,
    grid_from_spec,
    load_tokens,
    noise_from_spec,
    rng_from_state,
)
from .shards import ShardedExecutor, worker_pool
from .store import LandscapeStore, TenantStores, is_store_key

__all__ = ["LandscapeDaemon", "DEFAULT_SOCKET", "DEFAULT_MAX_PAYLOAD_BYTES"]

#: Default Unix-socket path (relative to the working directory) shared
#: by ``oscar-repro serve`` and the ``--daemon`` client flags.
DEFAULT_SOCKET = "oscar-repro.sock"

#: Default per-frame byte limit on both listeners (requests and
#: responses are single JSON lines; 32 MiB covers paper-sized grids
#: with room to spare while bounding a hostile frame).
DEFAULT_MAX_PAYLOAD_BYTES = 32 * 1024 * 1024


def _parse_tcp(value: str | int | tuple) -> tuple[str, int]:
    """Normalize a TCP address to ``(host, port)``.

    The one address parser: the daemon's ``tcp=`` setting, ``serve
    --tcp`` and the client's ``tcp://`` targets all go through it.
    Accepts ``(host, port)``, a bare port (``7421`` or ``"7421"``),
    ``"host:port"``, ``":port"`` (localhost) and ``"tcp://host:port"``.
    A missing or non-numeric port raises ``ValueError``.
    """
    if isinstance(value, int):
        return ("127.0.0.1", value)
    if isinstance(value, (tuple, list)):
        host, port = value
        return (str(host), int(port))
    text = str(value)
    if text.startswith("tcp://"):
        text = text[len("tcp://") :]
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise ValueError(
            f"tcp address {value!r} needs a numeric port (host:port), "
            f"got {port!r}"
        )
    return (host or "127.0.0.1", int(port))


def read_response(stream: BinaryIO) -> dict[str, Any]:
    """Read one JSON-lines protocol message from a binary stream.

    Raises ``ConnectionError`` on EOF (the peer vanished mid-request),
    which the client maps to its unavailable/fallback path.
    """
    line = stream.readline()
    if not line:
        raise ConnectionError("daemon closed the connection mid-request")
    return json.loads(line)


def write_message(stream: BinaryIO, message: dict[str, Any]) -> None:
    """Write one JSON-lines protocol message to a binary stream."""
    stream.write(json.dumps(message).encode("utf-8") + b"\n")
    stream.flush()


class LandscapeDaemon:
    """Long-running landscape server over a Unix-domain socket.

    Args:
        socket_path: where to bind the ``AF_UNIX`` socket (the file is
            created on :meth:`start` and removed on :meth:`close`; keep
            it under ~100 characters, the kernel's path limit).
        workers: size of the process's warm pool the daemon serves
            from (:func:`~repro.service.shards.worker_pool`, forked on
            :meth:`start` unless this process already has one; a
            restarted daemon reuses it).  ``1`` serves every request
            in-process (no pool) — still useful for the shared cache
            and single-flight dedup.  With a pool, the daemon and its
            workers run one BLAS thread (Linux only;
            :func:`~repro.service.shards.worker_pool` says why).
        cache_dir: directory for the daemon's
            :class:`~repro.service.store.LandscapeStore`.  ``None``
            disables caching: every ``compute`` computes, but identical
            concurrent requests still single-flight.
        max_bytes: LRU byte budget passed to the store built from
            ``cache_dir``.
        tcp: optionally also listen on TCP — ``"host:port"`` (or
            ``(host, port)`` / a bare port); port ``0`` binds an
            ephemeral port, readable from :attr:`tcp_address` after
            :meth:`start`.  TCP **requires** ``tokens_file``.
        tokens_file: path to the bearer-token file (see
            :func:`~repro.service.protocol.load_tokens`).  Tokens
            resolve to tenants; each tenant gets its own store
            namespace under ``<cache root>/tenants/<tenant>/``.
        tenant_quota_bytes: default per-tenant store byte budget for
            tenants whose credential does not carry ``quota_bytes``: a
            positive integer, or ``None`` (unbounded).
        max_payload_bytes: per-frame byte limit on both listeners.
        max_connections: concurrent connection cap (both listeners);
            connections beyond it are shed with a retryable
            ``overloaded`` error.
        max_concurrent_requests: requests executing at once; excess
            requests queue (bounded worker pool), they are not shed.
        idle_timeout: seconds a connection may sit idle between
            requests before the daemon disconnects it.
        drain_timeout: seconds :meth:`close` waits for in-flight
            requests to finish before cancelling their connections.

    Typical embedding (tests, examples) runs the daemon on a background
    thread::

        daemon = LandscapeDaemon("d.sock", workers=2, cache_dir="cache")
        daemon.start()          # binds + serves on a thread
        ...                     # clients connect via LandscapeClient
        daemon.close()          # stop serving and join; the pool stays warm

    ``oscar-repro serve`` runs :meth:`serve_forever` in the foreground
    instead.
    """

    def __init__(
        self,
        socket_path: str | Path,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        max_bytes: int | None = None,
        tcp: str | int | tuple | None = None,
        tokens_file: str | Path | None = None,
        tenant_quota_bytes: int | None = None,
        max_payload_bytes: int = DEFAULT_MAX_PAYLOAD_BYTES,
        max_connections: int = 64,
        max_concurrent_requests: int = 8,
        idle_timeout: float = 60.0,
        drain_timeout: float = 5.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        quota = tenant_quota_bytes
        if quota is not None and (type(quota) is not int or quota < 1):
            raise ValueError(
                "tenant_quota_bytes must be a positive integer or None, "
                f"got {quota!r}"
            )
        self.socket_path = Path(socket_path)
        self.workers = int(workers)
        self.store = (
            None
            if cache_dir is None
            else LandscapeStore(cache_dir, max_bytes=max_bytes)
        )
        self.credentials = () if tokens_file is None else load_tokens(tokens_file)
        self.tenants = TenantStores(
            default_store=self.store,
            quotas={
                credential.tenant: credential.quota_bytes
                for credential in self.credentials
                if credential.quota_bytes is not None
            },
            default_quota=tenant_quota_bytes,
        )
        self._tcp_config = None if tcp is None else _parse_tcp(tcp)
        if self._tcp_config is not None and not self.credentials:
            raise ValueError(
                "TCP serving requires tokens_file=: the network front "
                "authenticates every request with a bearer token"
            )
        if max_payload_bytes < 1024:
            raise ValueError(
                f"max_payload_bytes must be >= 1024, got {max_payload_bytes}"
            )
        self.max_payload_bytes = int(max_payload_bytes)
        self.max_connections = int(max_connections)
        self.max_concurrent_requests = max(1, int(max_concurrent_requests))
        self.idle_timeout = float(idle_timeout)
        self.drain_timeout = float(drain_timeout)
        self._store_lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "hits": 0,
            "misses": 0,
            "computed": 0,
            "deduped": 0,
            "evaluations": 0,
            "sparse_hits": 0,
            "sparse_computed": 0,
            "sparse_deduped": 0,
            "pipeline_runs": 0,
            "errors": 0,
        }
        self._tenant_counters: dict[str, dict[str, int]] = {}
        self._started = time.time()
        self._close_lock = threading.Lock()
        self._closed = threading.Event()
        # Serving-loop state (None/empty until _bind).  Everything below
        # the loop handle is touched only from the loop's own thread.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._request_executor: ThreadPoolExecutor | None = None
        self._tcp_address: tuple[str, int] | None = None
        self._stop: asyncio.Event | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._tasks: set[asyncio.Task] = set()
        self._connections = 0

    # -- lifecycle ---------------------------------------------------------

    def _bind(self) -> None:
        """Warm the process's pool, then bind and serve both listeners
        on the serving loop's thread (idempotent).

        Binding errors (a port in use, an over-long socket path) raise
        here, in the caller's thread."""
        if self._loop is not None:
            return
        self._closed.clear()
        if self.workers > 1:
            # Fork the workers before any serving thread exists:
            # fork-under-threads is the classic multiprocessing hazard.
            worker_pool(self.workers)
        self._request_executor = ThreadPoolExecutor(
            max_workers=self.max_concurrent_requests,
            thread_name_prefix="landscape-daemon-req",
        )
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="landscape-daemon", daemon=True
        )
        self._loop_thread.start()
        try:
            asyncio.run_coroutine_threadsafe(self._listen(), self._loop).result()
        except BaseException:
            self.close()
            raise
        self._started = time.time()

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        """The TCP listener's bound ``(host, port)`` (``None`` without
        ``tcp=`` or before :meth:`start`).  With port ``0`` this is how
        callers discover the ephemeral port."""
        return self._tcp_address

    def start(self) -> None:
        """Bind the socket(s) and serve on a background thread."""
        self._bind()

    def serve_forever(self) -> None:
        """Bind the socket(s) and block the calling thread (the CLI
        foreground path); returns after :meth:`close` or a ``shutdown``
        op."""
        self._bind()
        try:
            # An Event, not Thread.join: an interrupted join (Ctrl-C)
            # would mark the still-running loop thread as finished.
            self._closed.wait()
        finally:
            self.close()

    def close(self) -> None:
        """Stop serving (both listeners drain gracefully), join the
        serving thread, remove the socket.  Idempotent.  The process's
        pool stays warm for the next daemon or sharded call."""
        with self._close_lock:
            loop, self._loop = self._loop, None
            if loop is not None:
                try:
                    asyncio.run_coroutine_threadsafe(self._drain(), loop).result(
                        timeout=self.drain_timeout + 10.0
                    )
                finally:
                    loop.call_soon_threadsafe(loop.stop)
                    self._loop_thread.join(timeout=10.0)
                    if not self._loop_thread.is_alive():
                        loop.close()
                    self._loop_thread = None
                    self._tcp_address = None
                    self._request_executor.shutdown(wait=False)
                    self._request_executor = None
            self.socket_path.unlink(missing_ok=True)
            self._closed.set()

    def __enter__(self) -> "LandscapeDaemon":
        """Context-manager entry: :meth:`start` on a background thread."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()

    # -- request plumbing --------------------------------------------------

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[counter] += amount

    def _bump_tenant(self, tenant: str, op: str) -> None:
        """Per-tenant per-op accounting (surfaces in ``stats``)."""
        with self._counter_lock:
            ops = self._tenant_counters.setdefault(tenant, {})
            ops[op] = ops.get(op, 0) + 1

    @staticmethod
    def _error_payload(error: BaseException) -> dict[str, Any]:
        """The structured ``{type, message, code, retryable}`` object."""
        code, retryable = "internal", False
        if isinstance(error, ProtocolError):
            code, retryable = error.code, error.retryable
        elif isinstance(error, (json.JSONDecodeError, UnicodeDecodeError)):
            code = "malformed"
        elif isinstance(error, BrokenProcessPool):
            # A pool worker died mid-request; the next request runs on a
            # fresh pool.
            retryable = True
        return {
            "type": type(error).__name__,
            "message": str(error) or traceback.format_exc(limit=1),
            "code": code,
            "retryable": retryable,
        }

    def _error_response(self, error: BaseException) -> dict[str, Any]:
        """A counted ``{"ok": false}`` response for ``error``."""
        self._bump("errors")
        return {
            "ok": False,
            "version": PROTOCOL_VERSION,
            "error": self._error_payload(error),
        }

    def handle_line(self, line: bytes, transport: str = "unix") -> dict[str, Any]:
        """One raw request line -> one response object.

        A frame must carry ``"version": 2`` and an op from
        :data:`V2_OPS`; anything else (including an unversioned frame of
        the retired pickle protocol) gets a structured error without
        touching any handler.  ``transport`` (``"unix"`` or ``"tcp"``)
        only selects the auth rule (:meth:`_authenticate`).

        Every failure — unparseable JSON, an unknown op, a bad spec, an
        exception inside the computation — becomes a structured
        ``{"ok": false, "error": ...}`` response; the server never dies
        on a request.
        """
        self._bump("requests")
        try:
            try:
                request = json.loads(line)
            except UnicodeDecodeError as error:
                raise ProtocolError(
                    "malformed", f"request is not UTF-8 JSON: {error}"
                ) from error
            if not isinstance(request, dict):
                raise ProtocolError("malformed", "request must be a JSON object")
            version = request.get("version")
            if not isinstance(version, int) or version not in SUPPORTED_VERSIONS:
                raise ProtocolError(
                    "unsupported-version",
                    f"unsupported protocol version {version!r}: every frame "
                    f"needs a 'version' field, and this daemon speaks "
                    f"{list(SUPPORTED_VERSIONS)}",
                )
            op = request.get("op")
            handler = V2_OPS.get(op) if isinstance(op, str) else None
            if handler is None:
                raise ProtocolError(
                    "unknown-op",
                    f"unknown op {op!r}; supported: {sorted(V2_OPS)}",
                )
            tenant = self._authenticate(request, transport)
            self._bump_tenant(tenant, op)
            response = handler(self, request, tenant)
        except Exception as error:  # noqa: BLE001 - protocol boundary
            return self._error_response(error)
        response["ok"] = True
        response["version"] = PROTOCOL_VERSION
        return response

    def _authenticate(self, request: dict[str, Any], transport: str) -> str:
        """Resolve the request's tenant (before any pool/store work).

        TCP requires a valid bearer token.  Unix-socket requests keep
        the filesystem trust boundary: no token means the default
        tenant, but a *presented* token must still be valid — callers
        never silently fall back to another tenant's namespace.
        """
        token = request.get("token")
        if token is not None and not isinstance(token, str):
            raise ProtocolError("auth", "token must be a string")
        if token is None:
            if transport == "unix":
                return DEFAULT_TENANT
            raise ProtocolError("auth", "missing bearer token")
        if not self.credentials:
            raise ProtocolError(
                "auth", "this daemon has no tokens configured"
            )
        return authenticate(self.credentials, token).tenant

    # -- request fields ----------------------------------------------------

    @staticmethod
    def _int_field(request: dict[str, Any], name: str, minimum: int) -> int | None:
        """An optional integer field, strictly typed (bools rejected)
        and at least ``minimum`` (1 for shots, 0 for seeds)."""
        value = request.get(name)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "malformed", f"{name!r} must be an integer or null"
            )
        if value < minimum:
            raise ProtocolError(
                "invalid-spec", f"{name!r} must be >= {minimum}, got {value}"
            )
        return value

    def _v2_rng(self, request: dict[str, Any]) -> np.random.Generator | None:
        """The request's rng state resolved into a live generator."""
        payload = request.get("rng")
        return None if payload is None else rng_from_state(payload)

    def _v2_generator(
        self, request: dict[str, Any], rng: np.random.Generator | None = None
    ):
        """A generator executing the request on the daemon's resources.

        Function and grid resolve from declarative specs — the registry
        (:mod:`repro.service.protocol`) is the only way a request turns
        into code.  Worker count comes from the daemon (results are
        worker-count independent by the sharded-executor contract); the
        rng plan's ``seed`` comes from the request — it is part of the
        cache key for shot-noise landscapes.  Chunk and shard sizes are
        the engine's own; a frame's ``batch_size``/``shard_points`` are
        ignored like any unknown field.  A grid without one axis per
        ansatz parameter is ``invalid-spec`` before any work.
        """
        from ..landscape.generator import LandscapeGenerator

        function = function_from_spec(request.get("function"), rng=rng)
        grid = grid_from_spec(request.get("grid"))
        parameters = function.ansatz.num_parameters
        if grid.ndim != parameters:
            raise ProtocolError(
                "invalid-spec",
                f"a {grid.ndim}-D grid cannot index a {parameters}-parameter "
                "ansatz: the grid needs one axis per parameter",
            )
        return LandscapeGenerator(
            function,
            grid,
            workers=self.workers,
            seed=self._int_field(request, "seed", 0),
        )

    def _v2_spec_for(self, generator):
        """The generator's canonical spec; spec problems are the
        client's fault, not an internal error."""
        try:
            return generator.cache_spec()
        except (TypeError, ValueError) as error:
            raise ProtocolError("invalid-spec", str(error))

    # -- compute helpers ---------------------------------------------------

    def _single_flight(
        self,
        key: str,
        produce: Callable[[], Any],
        counter: str = "deduped",
    ) -> tuple[Any, bool]:
        """Run ``produce`` once per key; concurrent callers share the
        outcome (or the leader's exception) through one ``Future``.
        Returns ``(result, deduped)``; ``counter`` names which dedup
        counter followers bump.  The result is whatever the leader's
        producer returned — ``(landscape, hit)`` for ``compute``,
        ``(values, readthrough)`` for ``compute_indices``."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = Future()

        if not leader:
            self._bump(counter)
            return flight.result(), True

        # The entry leaves the table before the outcome is published, so
        # a request that arrives after the publish starts a fresh flight.
        try:
            try:
                result = produce()
            finally:
                with self._inflight_lock:
                    self._inflight.pop(key, None)
        except BaseException as error:
            flight.set_exception(error)
            raise
        flight.set_result(result)
        return result, False

    def _sparse_identity(
        self, generator, flat_indices: np.ndarray
    ) -> tuple[str | None, Any]:
        """``(single-flight key, dense spec)`` of a sparse request.

        The key recipe (documented in ``service/README.md``): sha256
        over the *dense* landscape spec key and the raw little-endian
        int64 bytes of the index array — order-preserving, because
        response values align with request order and seeded draws
        depend on point order.  The sparse shard layout (the rng plan
        over the index list under seeded shot noise) is a function of
        the index count, which the bytes already carry.

        Returns ``(None, None)`` when the request has no stable
        identity (a live rng: unseeded shot noise — every run is a
        different draw).  Those requests skip dedup and read-through
        and just evaluate.
        """
        try:
            dense_spec = generator.cache_spec()
        except (TypeError, ValueError, AttributeError):
            return None, None
        digest = hashlib.sha256()
        digest.update(dense_spec.key().encode("ascii"))
        digest.update(np.ascontiguousarray(flat_indices, dtype=np.int64).tobytes())
        return "sparse:" + digest.hexdigest()[:32], dense_spec

    def _sparse_values(
        self, generator, flat_indices: np.ndarray, store: LandscapeStore | None
    ) -> tuple[np.ndarray, bool, bool]:
        """Values at ``flat_indices``: read-through, dedup, or compute.

        Returns ``(values, readthrough, deduped)``.  The read-through
        fast path only answers **exact** requests: a cached shot-noise
        landscape's draws were seeded by the dense grid's point
        fingerprint, so its values at the sampled indices are a
        *different* stochastic draw than evaluating the subset — serving
        them would silently correlate OSCAR's samples with the ground
        truth (the exact property the spawn-mode fingerprint exists to
        prevent).
        """
        flat_indices = np.ascontiguousarray(flat_indices, dtype=np.int64)
        key, dense_spec = self._sparse_identity(generator, flat_indices)

        def produce() -> tuple[np.ndarray, bool]:
            if (
                dense_spec is not None
                and store is not None
                and getattr(generator.function, "shots", None) is None
            ):
                with self._store_lock:
                    cached = store.get(dense_spec)
                if cached is not None:
                    self._bump("sparse_hits")
                    return np.asarray(cached.flat()[flat_indices], dtype=float), True
            self._bump("sparse_computed")
            return generator.local_evaluate_indices(flat_indices), False

        if key is None:
            values, readthrough = produce()
            return values, readthrough, False
        (values, readthrough), deduped = self._single_flight(
            key, produce, counter="sparse_deduped"
        )
        return values, readthrough, deduped

    # -- ops ---------------------------------------------------------------

    def _v2_ping(self, request: dict[str, Any], tenant: str) -> dict[str, Any]:
        """Liveness probe (authenticated identity echoed back)."""
        return {
            "pid": os.getpid(),
            "workers": self.workers,
            "uptime": time.time() - self._started,
            "tenant": tenant,
            "protocol": PROTOCOL_VERSION,
        }

    def _v2_stats(self, request: dict[str, Any], tenant: str) -> dict[str, Any]:
        """Counters + store summary + per-tenant accounting."""
        with self._counter_lock:
            counters = dict(self._counters)
            tenant_ops = {
                name: dict(ops) for name, ops in self._tenant_counters.items()
            }
        with self._store_lock:
            tenant_stores = self.tenants.stats()
        tenants = {
            name: {
                "ops": tenant_ops.get(name, {}),
                "store": tenant_stores.get(name),
            }
            for name in sorted(set(tenant_ops) | set(tenant_stores))
        }
        return {
            "pid": os.getpid(),
            "workers": self.workers,
            "uptime": time.time() - self._started,
            "counters": counters,
            # The default store is the default tenant's namespace.
            "store": tenant_stores.get(DEFAULT_TENANT),
            "tenants": tenants,
        }

    def _v2_index(self, request: dict[str, Any], tenant: str) -> dict[str, Any]:
        """Index listing over the caller's namespace only."""
        store = self.tenants.store_for(tenant)
        if store is None:
            return {"entries": []}
        with self._store_lock:
            entries = store.entries()
        return {
            "entries": [
                {
                    "key": entry.key,
                    "label": entry.label,
                    "payload_bytes": entry.payload_bytes,
                    "access": entry.access,
                    "created": entry.created,
                }
                for entry in entries
            ]
        }

    def _v2_get(self, request: dict[str, Any], tenant: str) -> dict[str, Any]:
        """Raw-key lookup — namespaced, never crosses tenants."""
        key = request.get("key")
        if not is_store_key(key):
            raise ProtocolError("malformed", "get needs a 32-hex store 'key'")
        store = self.tenants.store_for(tenant)
        landscape = None
        if store is not None:
            with self._store_lock:
                landscape = store.get(key)
        return {
            "landscape": None if landscape is None else encode_landscape(landscape)
        }

    def _v2_invalidate(
        self, request: dict[str, Any], tenant: str
    ) -> dict[str, Any]:
        """Raw-key invalidation — namespaced, never crosses tenants."""
        key = request.get("key")
        if not is_store_key(key):
            raise ProtocolError("malformed", "invalidate needs a 32-hex store 'key'")
        store = self.tenants.store_for(tenant)
        removed = False
        if store is not None:
            with self._store_lock:
                removed = store.invalidate(key)
        return {"removed": removed}

    def _v2_shutdown(
        self, request: dict[str, Any], tenant: str
    ) -> dict[str, Any]:
        """Acknowledge, then stop serving from a side thread."""
        threading.Thread(target=self.close, daemon=True).start()
        return {"stopping": True}

    def _v2_evaluate(
        self, request: dict[str, Any], tenant: str
    ) -> dict[str, Any]:
        """Raw batch evaluation from declarative specs (uncached).

        The ansatz and noise resolve through the spec registry, the
        batch travels as a typed array codec, and the caller's rng state
        round-trips so client-side generators land on the exact stream
        position a local run would."""
        ansatz = ansatz_from_spec(request.get("ansatz"))
        batch = decode_array(request.get("batch"))
        if batch.ndim != 2 or batch.shape[1] != ansatz.num_parameters:
            raise ProtocolError(
                "malformed",
                f"batch must be 2-D with one column per ansatz parameter "
                f"({ansatz.num_parameters}), got shape {batch.shape}",
            )
        rng = self._v2_rng(request)
        executor = ShardedExecutor(
            workers=self.workers,
            seed=self._int_field(request, "seed", 0),
        )
        values = executor.run_ansatz(
            ansatz,
            batch,
            noise=noise_from_spec(request.get("noise")),
            shots=self._int_field(request, "shots", 1),
            rng=rng,
        )
        self._bump("evaluations")
        return {
            "values": encode_array(np.asarray(values, dtype=float)),
            "rng": encode_rng_state(rng),
        }

    def _v2_compute(
        self, request: dict[str, Any], tenant: str
    ) -> dict[str, Any]:
        """The service path: tenant store hit, cross-tenant read-through
        for exact specs, else single-flighted compute.

        The spec (and therefore the dedup/cache key) is derived *here*
        from the resolved request, never trusted from the client, so
        the in-flight table and the store can never disagree about what
        a request means.  The single-flight key is tenant-independent on
        purpose: two tenants racing the same spec compute it once; each
        still lands a copy in its own namespace (quota-accounted)."""
        generator = self._v2_generator(request)
        spec = self._v2_spec_for(generator)
        label = str(request.get("label", "landscape"))
        store = self.tenants.store_for(tenant)

        def produce() -> tuple[Any, bool]:
            if store is not None:
                with self._store_lock:
                    cached = store.get(spec)
                if cached is not None:
                    self._bump("hits")
                    return cached, True
            with self._store_lock:
                shared, _owner = self.tenants.read_through(spec, tenant)
                if shared is not None and store is not None:
                    store.put(spec, shared)
            if shared is not None:
                self._bump("hits")
                return shared, True
            self._bump("misses")
            self._bump("computed")
            landscape = generator.local_grid_search(label)
            if store is not None:
                with self._store_lock:
                    store.put(spec, landscape)
            return landscape, False

        (landscape, hit), deduped = self._single_flight(spec.key(), produce)
        if deduped and store is not None:
            # A follower joined another tenant's flight: the result
            # belongs in this tenant's namespace too.
            with self._store_lock:
                if store.get(spec) is None:
                    store.put(spec, landscape)
        return {
            "landscape": encode_landscape(landscape),
            "key": spec.key(),
            "hit": hit,
            "deduped": deduped,
        }

    def _v2_compute_indices(
        self, request: dict[str, Any], tenant: str
    ) -> dict[str, Any]:
        """Sparse evaluation of a flat-index set (OSCAR's sampling path).

        The service path used by
        :meth:`~repro.landscape.generator.LandscapeGenerator.evaluate_indices`:
        indices (a typed int64 array or a JSON list of integers; floats
        and bools are refused, not truncated) are bounds-validated, exact
        requests are answered from a cached dense landscape in the
        caller's namespace when one exists (read-through — no pool
        touch), and deterministic requests
        single-flight on (dense spec key, canonicalized index set).  The
        cost function's bound rng (when shipped) is consumed here and
        its final state returned, preserving the cross-engine rng
        draw-order contract over the wire.
        """
        generator = self._v2_generator(request, rng=self._v2_rng(request))
        indices = request.get("indices")
        if isinstance(indices, dict):
            indices = decode_array(indices)
        typed = isinstance(indices, np.ndarray) and indices.dtype == np.int64
        listed = isinstance(indices, list) and all(type(i) is int for i in indices)
        if not (typed or listed):
            raise ProtocolError(
                "malformed", "'indices' must be an int64 array or a list of integers"
            )
        try:
            flat_indices = validate_flat_indices(int(generator.grid.size), indices)
        except (TypeError, ValueError) as error:
            raise ProtocolError("invalid-spec", str(error))
        values, readthrough, deduped = self._sparse_values(
            generator, flat_indices, self.tenants.store_for(tenant)
        )
        rng = getattr(generator.function, "rng", None)
        return {
            "values": encode_array(np.asarray(values, dtype=float)),
            "rng": encode_rng_state(rng),
            "readthrough": readthrough,
            "deduped": deduped,
        }

    def _v2_pipeline(
        self, request: dict[str, Any], tenant: str
    ) -> dict[str, Any]:
        """The whole paper loop, server-side, in one request.

        Runs :func:`~repro.service.pipeline.run_pipeline` on the
        daemon's resources, with the evaluation stage routed through
        the same sparse service path as ``compute_indices`` (so a
        cached dense landscape read-throughs here too).  The
        reconstruction is cached under a pipeline spec in the caller's
        namespace when the request is reproducible (integer sample seed
        + deterministic evaluation), and its store key returned as a
        handle.  Pipeline requests are *not* single-flighted: an
        unseeded sampling rng makes two byte-identical requests
        legitimately different runs.  The config decodes with one
        ``PipelineConfig(**config)`` call, so a field the config does
        not know is ``invalid-spec``; the outcome encodes through
        :func:`~repro.service.pipeline.encode_outcome`."""
        from ..cs.reconstruct import ReconstructionConfig
        from .pipeline import (
            PipelineConfig,
            check_initial_point,
            encode_outcome,
            pipeline_spec,
            run_pipeline,
        )

        payload = request.get("config")
        if not isinstance(payload, dict):
            raise ProtocolError(
                "invalid-spec", "pipeline needs a 'config' object"
            )
        generator = self._v2_generator(request, rng=self._v2_rng(request))
        try:
            reconstruction = payload.get("reconstruction")
            if reconstruction is not None:
                payload = {
                    **payload,
                    "reconstruction": ReconstructionConfig(**reconstruction),
                }
            config = PipelineConfig(**payload)
            check_initial_point(config, generator.grid)
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                "invalid-spec", f"invalid pipeline config: {error}"
            )

        sample_payload = request.get("sample_rng")
        if sample_payload is None:
            sample_rng: Any = None
        elif isinstance(sample_payload, int) and not isinstance(
            sample_payload, bool
        ):
            sample_rng = sample_payload
        elif isinstance(sample_payload, dict):
            sample_rng = rng_from_state(sample_payload)
        else:
            raise ProtocolError(
                "malformed",
                "'sample_rng' must be an integer seed, an rng state "
                "object, or null",
            )
        store = self.tenants.store_for(tenant)
        outcome = run_pipeline(
            generator,
            config,
            sample_rng,
            evaluate=lambda indices: self._sparse_values(
                generator, indices, store
            )[0],
        )
        self._bump("pipeline_runs")

        key = None
        if store is not None and isinstance(sample_rng, int):
            try:
                spec = pipeline_spec(generator, config, sample_rng)
            except (TypeError, ValueError, AttributeError):
                spec = None
            if spec is not None:
                with self._store_lock:
                    store.put(spec, outcome.landscape)
                key = spec.key()

        rng = getattr(generator.function, "rng", None)
        return {
            **encode_outcome(outcome),
            "key": key,
            "rng": encode_rng_state(rng),
            "sample_rng": (
                encode_rng_state(sample_rng)
                if isinstance(sample_rng, np.random.Generator)
                else None
            ),
        }

    # -- the serving loop (both listeners) ---------------------------------

    async def _listen(self) -> None:
        """Bind the Unix socket (owner-only) and, with ``tcp=``, the TCP
        listener on the running loop; called once by :meth:`_bind`."""
        self._stop = asyncio.Event()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self.socket_path.unlink(missing_ok=True)
        self._servers.append(
            await asyncio.start_unix_server(
                functools.partial(self._connection, transport="unix"),
                path=str(self.socket_path),
                limit=self.max_payload_bytes,
            )
        )
        # Owner-only: a tokenless connection acts as the default tenant,
        # so do not rely on the umask to keep other users out.
        os.chmod(self.socket_path, 0o600)
        if self._tcp_config is not None:
            host, port = self._tcp_config
            server = await asyncio.start_server(
                functools.partial(self._connection, transport="tcp"),
                host=host,
                port=port,
                limit=self.max_payload_bytes,
            )
            self._servers.append(server)
            self._tcp_address = server.sockets[0].getsockname()[:2]

    async def _drain(self) -> None:
        """Graceful shutdown: stop accepting, give in-flight connections
        ``drain_timeout`` seconds to finish their current response, then
        cancel stragglers."""
        loop = asyncio.get_running_loop()
        self._stop.set()
        for server in self._servers:
            server.close()
        deadline = loop.time() + self.drain_timeout
        while self._tasks and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for server in self._servers:
            await server.wait_closed()
        self._servers = []

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
        writer.write(json.dumps(message).encode("utf-8") + b"\n")
        await writer.drain()

    async def _connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        transport: str,
    ) -> None:
        """Per-connection wrapper: connection cap, session, cleanup."""
        task = asyncio.current_task()
        self._tasks.add(task)
        shed = self._connections >= self.max_connections
        if not shed:
            self._connections += 1
        try:
            if shed:
                await self._send(
                    writer,
                    self._error_response(
                        ProtocolError(
                            "overloaded",
                            f"connection cap ({self.max_connections}) "
                            "reached; retry shortly",
                            retryable=True,
                        )
                    ),
                )
            else:
                await self._session(reader, writer, transport)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the peer vanished mid-response
        finally:
            if not shed:
                self._connections -= 1
            self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _session(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        transport: str,
    ) -> None:
        """Read frames until idle/EOF/over-limit; answer each one.

        Request handling is blocking (it may fork work into the
        process pool), so it runs on the bounded request executor —
        beyond ``max_concurrent_requests`` in-flight requests, new
        frames queue rather than spawn unbounded threads."""
        loop = asyncio.get_running_loop()
        while not self._stop.is_set():
            try:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.idle_timeout
                )
            except asyncio.TimeoutError:
                return  # idle disconnect
            except ValueError:
                # StreamReader's limit tripped: the frame exceeds
                # max_payload_bytes and cannot be resynchronized —
                # answer, then drop the connection.
                await self._send(
                    writer,
                    self._error_response(
                        ProtocolError(
                            "too-large",
                            "frame exceeds max_payload_bytes "
                            f"({self.max_payload_bytes}); connection closing",
                        )
                    ),
                )
                return
            if not line:
                return  # EOF
            if not line.strip():
                continue
            response = await loop.run_in_executor(
                self._request_executor, self.handle_line, line, transport
            )
            await self._send(writer, response)


#: The dispatch table: the **only** way a request reaches code, on
#: either listener.  Every handler resolves declarative specs through
#: :mod:`repro.service.protocol`'s registries; no module of the service
#: layer imports ``pickle`` (a conformance test checks all of them).
V2_OPS: dict[str, Callable[..., dict[str, Any]]] = {
    "ping": LandscapeDaemon._v2_ping,
    "stats": LandscapeDaemon._v2_stats,
    "index": LandscapeDaemon._v2_index,
    "get": LandscapeDaemon._v2_get,
    "invalidate": LandscapeDaemon._v2_invalidate,
    "shutdown": LandscapeDaemon._v2_shutdown,
    "evaluate": LandscapeDaemon._v2_evaluate,
    "compute": LandscapeDaemon._v2_compute,
    "compute_indices": LandscapeDaemon._v2_compute_indices,
    "pipeline": LandscapeDaemon._v2_pipeline,
}
