"""Client library for the landscape daemon.

:class:`LandscapeClient` talks the JSON-lines protocol of
:class:`~repro.service.daemon.LandscapeDaemon` over its Unix-domain
socket **or** its authenticated TCP front (``tcp://host:port`` targets).
The headline call is :meth:`LandscapeClient.get_or_compute`, which ships
a cost function + grid to the daemon and gets a
:class:`~repro.landscape.landscape.Landscape` back — served from the
daemon's shared store when cached, computed once on its persistent pool
otherwise (concurrent identical requests are deduplicated server-side).

Every request travels as a **pickle-free v2 frame** built from the
:mod:`repro.service.protocol` spec registry (registered
ansatz/cost-function/grid/noise types), on both transports.  A request
that cannot describe itself declaratively — a plain closure, a test
double, a duck-typed grid — cannot be served by any daemon, so it
follows the no-daemon rule below.

The client **falls back transparently** to in-process execution when no
daemon can serve a request (socket missing, connection refused, daemon
gone mid-request, or a payload with no declarative spec), so library
code can pass ``daemon=`` unconditionally: with a daemon running
requests share one pool and one cache, without one they behave exactly
as before.  Server-side *errors* (a malformed spec, shot noise without a
seed, a bad token) are raised as :class:`DaemonError` instead — a
reachable daemon rejecting a request is a bug to surface, not a reason
to silently recompute.

Example — no daemon on this socket, so the call computes locally::

    >>> from repro.ansatz import QaoaAnsatz
    >>> from repro.landscape import cost_function, qaoa_grid
    >>> from repro.problems import random_3_regular_maxcut
    >>> from repro.service import LandscapeClient
    >>> client = LandscapeClient("definitely-not-listening.sock")
    >>> client.is_alive()
    False
    >>> ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
    >>> landscape = client.get_or_compute(
    ...     cost_function(ansatz), qaoa_grid(p=1, resolution=(4, 8))
    ... )
    >>> landscape.values.shape, client.fallbacks
    ((4, 8), 1)
"""

from __future__ import annotations

import socket
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..landscape.grid import validate_flat_indices
from ..landscape.landscape import Landscape
from .daemon import _parse_tcp, read_response, write_message
from .protocol import (
    PROTOCOL_VERSION,
    ansatz_to_spec,
    apply_rng_state,
    decode_array,
    decode_landscape,
    encode_array,
    encode_rng_state,
    function_to_spec,
    grid_to_spec,
    noise_to_spec,
)

__all__ = ["DaemonError", "DaemonUnavailable", "LandscapeClient"]


class DaemonUnavailable(ConnectionError):
    """No daemon is reachable on the target (triggers local fallback)."""


class DaemonError(RuntimeError):
    """The daemon answered with a structured error response (or the
    request could not be expressed as a declarative spec at all)."""

    def __init__(
        self,
        kind: str,
        message: str,
        code: str | None = None,
        retryable: bool = False,
    ):
        super().__init__(f"{kind}: {message}")
        #: exception type name reported by the daemon
        self.kind = kind
        #: machine-readable error code (see ``protocol.ERROR_CODES``)
        self.code = code
        #: whether the daemon marked the failure as safe to retry
        self.retryable = retryable


def _parse_target(target: str | Path) -> tuple[Path | None, tuple[str, int] | None]:
    """``(socket_path, tcp_address)`` — exactly one is non-``None``."""
    if isinstance(target, str) and target.startswith("tcp://"):
        return None, _parse_tcp(target)
    return Path(target), None


def _local_generator(function, grid, seed):
    """The plain single-process generator behind the local fallbacks."""
    from ..landscape.generator import LandscapeGenerator

    return LandscapeGenerator(function, grid, seed=seed)


def _writeback_rng(
    rng: np.random.Generator | None, response: dict[str, Any], field: str = "rng"
) -> None:
    """Restore a caller generator to the daemon-advanced position (the
    caller's object is mutated in place, never replaced)."""
    if rng is not None and response.get(field) is not None:
        apply_rng_state(rng, response[field])


class LandscapeClient:
    """Talks to a :class:`~repro.service.daemon.LandscapeDaemon`.

    Args:
        target: the daemon's Unix-socket path, or ``tcp://host:port``
            for the authenticated TCP front.
        timeout: per-request socket timeout in seconds (``None`` waits
            indefinitely — computes can legitimately take minutes).
        fallback: whether the service calls compute in-process when no
            daemon can serve them (none reachable, or a payload with no
            declarative spec).  ``False`` raises instead —
            :class:`DaemonUnavailable` or a :class:`DaemonError` with
            code ``invalid-spec`` (the equivalence harness uses this so
            a dead daemon fails loudly).
        token: bearer token attached to every frame.  Required for TCP
            targets; optional on the Unix socket (where it selects a
            tenant namespace instead of the default one).

    A service frame carries only what can change an answer: the cost
    function, the grid, ``seed`` and rng state.  Chunk and shard sizes
    are the serving engine's own decision.

    The instance counts :attr:`fallbacks` (requests served locally) and
    remembers :attr:`last_served_by` (``"daemon-hit"``,
    ``"daemon-computed"``, ``"daemon-deduped"`` or ``"local"``) so
    callers and tests can see where a landscape came from.
    """

    def __init__(
        self,
        target: str | Path,
        timeout: float | None = None,
        fallback: bool = True,
        token: str | None = None,
    ):
        self.socket_path, self.tcp_address = _parse_target(target)
        self.timeout = timeout
        self.fallback = fallback
        self.token = token
        self.fallbacks = 0
        self.last_served_by: str | None = None

    @property
    def target(self) -> str:
        """Human-readable form of wherever this client points."""
        if self.tcp_address is not None:
            return f"tcp://{self.tcp_address[0]}:{self.tcp_address[1]}"
        return str(self.socket_path)

    # -- transport ---------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self.tcp_address is not None:
            return socket.create_connection(self.tcp_address, timeout=self.timeout)
        connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            connection.settimeout(self.timeout)
            connection.connect(str(self.socket_path))
        except BaseException:
            connection.close()
            raise
        return connection

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip on a fresh connection.

        Connectivity failures raise :class:`DaemonUnavailable`;
        protocol-level failures raise :class:`DaemonError`.
        """
        try:
            with self._connect() as connection:
                with connection.makefile("rwb") as stream:
                    write_message(stream, payload)
                    response = read_response(stream)
        except (OSError, ConnectionError) as error:
            raise DaemonUnavailable(
                f"no landscape daemon reachable on {self.target}: {error}"
            ) from error
        if not response.get("ok"):
            error = response.get("error") or {}
            raise DaemonError(
                str(error.get("type", "UnknownError")),
                str(error.get("message", "")),
                code=error.get("code"),
                retryable=bool(error.get("retryable", False)),
            )
        return response

    def _frame(self, op: str, **fields: Any) -> dict[str, Any]:
        """A versioned frame with the client's token attached."""
        frame: dict[str, Any] = {"version": PROTOCOL_VERSION, "op": op}
        if self.token is not None:
            frame["token"] = self.token
        frame.update(fields)
        return frame

    @staticmethod
    def _unspecable(op: str) -> DaemonError:
        return DaemonError(
            "ProtocolError",
            f"{op}: this request cannot be expressed as a declarative spec "
            "(unregistered cost function, ansatz, noise or grid type), so "
            "no daemon can serve it; it runs in-process only",
            code="invalid-spec",
        )

    def _serve(self, op: str, frame: dict[str, Any] | None) -> dict[str, Any] | None:
        """The daemon's response to ``frame``, or ``None`` when the
        request must run in-process instead: no daemon is reachable, or
        ``frame`` is ``None`` (the payload has no declarative spec).

        ``fallback=False`` turns both cases into errors — it wins even
        when the caller supplied a fallback callable (the generator
        wiring always does).
        """
        if frame is not None:
            try:
                return self._request(frame)
            except DaemonUnavailable:
                if not self.fallback:
                    raise
        elif not self.fallback:
            raise self._unspecable(op)
        self.fallbacks += 1
        self.last_served_by = "local"
        return None

    # -- probes and maintenance --------------------------------------------

    def is_alive(self) -> bool:
        """Whether a daemon answers a ``ping`` on the target."""
        try:
            self.ping()
            return True
        except DaemonUnavailable:
            return False

    def ping(self) -> dict[str, Any]:
        """The daemon's ``ping`` response (pid, workers, uptime)."""
        return self._request(self._frame("ping"))

    def stats(self) -> dict[str, Any]:
        """Request/hit/miss/dedup counters plus the store summary."""
        response = self._request(self._frame("stats"))
        response.pop("ok", None)
        response.pop("version", None)
        return response

    def index(self) -> list[dict[str, Any]]:
        """The daemon store's entry listing (LRU first), scoped to this
        client's tenant namespace."""
        return list(self._request(self._frame("index"))["entries"])

    def invalidate(self, key: str) -> bool:
        """Drop one cached entry by key; returns whether it existed."""
        return bool(self._request(self._frame("invalidate", key=key))["removed"])

    def get(self, key: str) -> Landscape | None:
        """Fetch a cached landscape by key without ever computing."""
        blob = self._request(self._frame("get", key=key))["landscape"]
        return None if blob is None else decode_landscape(blob)

    def shutdown(self) -> None:
        """Ask the daemon to stop serving (best-effort, returns after
        the daemon acknowledges)."""
        self._request(self._frame("shutdown"))

    # -- the service path --------------------------------------------------

    def _function_frame(
        self, op: str, function, grid, **fields: Any
    ) -> dict[str, Any] | None:
        """A ``(function, grid)`` frame, or ``None`` when either part
        cannot describe itself declaratively."""
        function_spec = function_to_spec(function)
        grid_spec = grid_to_spec(grid)
        if function_spec is None or grid_spec is None:
            return None
        return self._frame(op, function=function_spec, grid=grid_spec, **fields)

    def get_or_compute(
        self,
        function: Callable,
        grid,
        seed: int | None = None,
        label: str = "landscape",
        fallback: Callable[[], Landscape] | None = None,
    ) -> Landscape:
        """A dense landscape for ``(function, grid)``, served or computed.

        Ships the cost function and grid to the daemon as declarative
        specs; the daemon derives the canonical
        :class:`~repro.service.store.LandscapeSpec` itself, serves a
        store hit, or computes once on its persistent pool
        (deduplicating concurrent identical requests).  ``seed`` fixes
        the rng plan exactly as it does on
        :class:`~repro.landscape.generator.LandscapeGenerator` — shot
        noise needs ``seed=`` to be cacheable at all.

        When no daemon can serve the request (none reachable, or no
        declarative spec) and ``fallback`` is enabled, the request is
        computed in-process: by the ``fallback`` callable when given
        (:class:`~repro.landscape.generator.LandscapeGenerator` passes
        its own local path, preserving its ``workers``/``store``
        settings), else by a plain single-process generator.
        """
        frame = self._function_frame(
            "compute", function, grid, seed=seed, label=label
        )
        response = self._serve("compute", frame)
        if response is None:
            if fallback is not None:
                return fallback()
            return _local_generator(function, grid, seed).local_grid_search(label)
        landscape = decode_landscape(response["landscape"])
        if response.get("deduped"):
            self.last_served_by = "daemon-deduped"
        elif response.get("hit"):
            self.last_served_by = "daemon-hit"
        else:
            self.last_served_by = "daemon-computed"
        if landscape.label != label:
            landscape = replace(landscape, label=label)
        return landscape

    # -- sparse evaluation (OSCAR's sampling path) -------------------------

    def evaluate_indices(
        self,
        function: Callable,
        grid,
        flat_indices: np.ndarray | Sequence[int],
        seed: int | None = None,
        fallback: Callable[[], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Cost values at a flat-index subset, served by the daemon.

        Ships the cost function, grid and index set to the daemon's
        ``compute_indices`` op: indices are bounds-validated
        server-side, exact requests read through a cached dense
        landscape when the store holds one (no pool touch), and
        deterministic requests dedup against concurrent identical index
        sets.  The function's bound ``rng`` (if any) is consumed
        server-side and its final state written back, preserving the
        draw-order contract.  Falls back in-process like
        :meth:`get_or_compute`.  Indices are checked like the library's
        (:func:`~repro.landscape.grid.validate_flat_indices`) before any
        frame is built.
        """
        indices = validate_flat_indices(grid.size, flat_indices)
        rng = getattr(function, "rng", None)
        frame = self._function_frame(
            "compute_indices",
            function,
            grid,
            indices=encode_array(indices),
            seed=seed,
            rng=encode_rng_state(rng),
        )
        response = self._serve("compute_indices", frame)
        if response is None:
            if fallback is not None:
                return np.asarray(fallback())
            return _local_generator(function, grid, seed).local_evaluate_indices(
                indices
            )
        values = decode_array(response["values"])
        _writeback_rng(rng, response)
        if response.get("readthrough"):
            self.last_served_by = "daemon-readthrough"
        elif response.get("deduped"):
            self.last_served_by = "daemon-deduped"
        else:
            self.last_served_by = "daemon-computed"
        return values

    # -- the one-request pipeline ------------------------------------------

    def run_pipeline(
        self,
        function: Callable,
        grid,
        config,
        sample_rng=None,
        seed: int | None = None,
        fallback: Callable[[], Any] | None = None,
    ):
        """Sample → reconstruct → optimize in one daemon request.

        Returns a :class:`~repro.service.pipeline.PipelineOutcome`.
        Both the caller's sampling generator (when ``sample_rng`` is a
        ``Generator``) and the cost function's bound ``rng`` round-trip
        over the wire, so a daemon-served pipeline leaves the caller's
        streams exactly where a local run would — and its trajectory is
        bit-identical to the client-composed sequence.  Falls back to
        the in-process :func:`~repro.service.pipeline.run_pipeline`
        like :meth:`get_or_compute`.
        """
        from .pipeline import decode_outcome, run_pipeline

        rng = getattr(function, "rng", None)
        frame = None
        if is_dataclass(config):
            frame = self._function_frame(
                "pipeline",
                function,
                grid,
                config=asdict(config),
                sample_rng=encode_rng_state(sample_rng)
                if isinstance(sample_rng, np.random.Generator)
                else sample_rng,
                seed=seed,
                rng=encode_rng_state(rng),
            )
        response = self._serve("pipeline", frame)
        if response is None:
            if fallback is not None:
                return fallback()
            generator = _local_generator(function, grid, seed)
            return run_pipeline(generator, config, sample_rng)
        outcome = decode_outcome(response)
        _writeback_rng(rng, response)
        if isinstance(sample_rng, np.random.Generator):
            _writeback_rng(sample_rng, response, field="sample_rng")
        self.last_served_by = "daemon-pipeline"
        return outcome

    # -- raw evaluation (the equivalence-harness path) ---------------------

    def evaluate_ansatz(
        self,
        ansatz: Ansatz,
        batch: np.ndarray | Sequence[Sequence[float]],
        noise=None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Uncached batch evaluation through the daemon.

        The caller's ``rng`` (if any) ships over as a JSON state, is
        consumed by the daemon's executor, and its final state is
        written back into the caller's generator, so values *and* rng
        stream position match an in-process evaluation exactly.  This
        is the call the ``daemon`` and ``daemon-tcp`` engines in
        ``tests/equivalence/harness.py`` are built on; it never falls
        back (a dead daemon must fail the parity matrix, not silently
        pass it), and an ansatz or noise model with no declarative spec
        raises a :class:`DaemonError` with code ``invalid-spec``.
        """
        batch = np.asarray(batch, dtype=float)
        ansatz_spec = ansatz_to_spec(ansatz)
        try:
            noise_spec = noise_to_spec(noise)
        except (AttributeError, TypeError, ValueError):
            raise self._unspecable("evaluate") from None
        if ansatz_spec is None:
            raise self._unspecable("evaluate")
        response = self._request(
            self._frame(
                "evaluate",
                ansatz=ansatz_spec,
                batch=encode_array(batch),
                noise=noise_spec,
                shots=shots,
                rng=encode_rng_state(rng),
            )
        )
        values = decode_array(response["values"])
        _writeback_rng(rng, response)
        return values
