"""Wire-protocol v2 conformance + fuzz suite (``pytest -m protocol``).

Three gates on the wire front of
:class:`~repro.service.daemon.LandscapeDaemon`:

- **golden round-trip vectors** — one pinned request/response pair per
  v2 op, stored in ``tests/fixtures/wire_protocol_v2.json``.  The test
  replays each request against a live TCP daemon and compares the
  response's key set and pinned payload fields, so any change to the
  wire format (a renamed field, a reshaped array codec, a different
  cache key) fails loudly instead of drifting silently.  Regenerate
  after an *intentional* format change with::

      PYTHONPATH=src python tests/test_wire_protocol.py --regen

- **fuzz** — hypothesis-generated malformed / truncated / oversized /
  wrong-version / wrong-type frames against a live daemon.  Every frame
  must come back as a structured ``{"ok": false, "error": {code}}``
  response, and afterwards the daemon must still answer a ping with an
  empty in-flight table — no hang, no crash, no leaked flight.

- **no pickle in the service layer** — parses every module of
  ``repro.service`` and fails on any ``pickle`` (or ``socketserver``)
  import or use, and on any v1 handler left on the daemon: neither
  listener may ever unpickle client bytes.
"""

from __future__ import annotations

import ast
import inspect
import json
import socket
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import protocol as protocol_module
from repro.service.client import LandscapeClient
from repro.service.daemon import V2_OPS, LandscapeDaemon
from repro.service.protocol import ERROR_CODES, decode_array

pytestmark = pytest.mark.protocol

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "wire_protocol_v2.json"

GOLDEN_TOKEN = "golden-token"
FUZZ_TOKEN = "fuzz-token-7f3a9c"
FUZZ_MAX_PAYLOAD = 4096

#: The compute cost function / grid all golden vectors share: 3-qubit
#: p=1 QAOA on a fixed ring, 4x4 grid — small enough that the whole
#: golden replay takes well under a second.
GOLDEN_FUNCTION = {
    "kind": "ansatz",
    "ansatz": {
        "type": "qaoa",
        "p": 1,
        "num_qubits": 3,
        "problem": {
            "couplings": [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]],
            "fields": [],
            "offset": 0.0,
        },
    },
    "noise": None,
    "shots": None,
}
GOLDEN_GRID = [
    {"name": "gamma", "low": 0.0, "high": 1.0, "num_points": 4},
    {"name": "beta", "low": 0.0, "high": 1.0, "num_points": 4},
]


def _b64_batch() -> dict:
    from repro.service.protocol import encode_array

    return encode_array(
        np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], dtype=float)
    )


def golden_requests() -> list[dict]:
    """The pinned request sequence, one frame per v2 op (in replay
    order: ``compute`` primes the store entries that ``get`` /
    ``index`` / ``compute_indices`` / ``invalidate`` then exercise).
    ``shutdown`` is replayed last against a throwaway daemon.

    The ``batch_size``/``shard_points`` nulls are frames of a client
    that still sent those fields; the daemon ignores them like any
    unknown field, and the fixture keeps them byte for byte."""
    base = {"version": 2, "token": GOLDEN_TOKEN}
    return [
        {**base, "op": "ping"},
        {**base, "op": "stats"},
        {
            **base,
            "op": "evaluate",
            "ansatz": GOLDEN_FUNCTION["ansatz"],
            "batch": _b64_batch(),
            "noise": {"p1": 0.002, "p2": 0.006, "readout": 0.0},
            "shots": None,
            "rng": None,
        },
        {
            **base,
            "op": "compute",
            "function": GOLDEN_FUNCTION,
            "grid": GOLDEN_GRID,
            "batch_size": None,
            "seed": None,
            "shard_points": None,
            "label": "golden",
        },
        {
            **base,
            "op": "compute_indices",
            "function": GOLDEN_FUNCTION,
            "grid": GOLDEN_GRID,
            "indices": [0, 3, 7, 15, 2],
            "batch_size": None,
            "seed": None,
            "shard_points": None,
            "rng": None,
        },
        {**base, "op": "index"},
        {**base, "op": "get", "key": "__KEY__"},
        {
            **base,
            "op": "pipeline",
            "function": GOLDEN_FUNCTION,
            "grid": GOLDEN_GRID,
            "config": {
                "fraction": 0.5,
                "sampler": "uniform",
                "reconstruction": None,
                "optimizer": "cobyla",
                "optimizer_options": {"maxiter": 5},
                "initial_point": None,
                "label": "golden-pipeline",
            },
            "sample_rng": 7,
            "batch_size": None,
            "seed": None,
            "shard_points": None,
            "rng": None,
        },
        {**base, "op": "invalidate", "key": "__KEY__"},
        {**base, "op": "shutdown"},
    ]


#: Response fields pinned verbatim per op (everything else is checked
#: by key-set only — pids, uptimes and timings are legitimately
#: volatile, landscape blobs are pinned by decoded values instead).
PIN_FIELDS = {
    "ping": ["workers", "tenant", "protocol"],
    "stats": [],
    "evaluate": ["values", "rng"],
    "compute": ["key", "hit", "deduped", "__landscape_values__"],
    "compute_indices": ["values", "rng", "readthrough", "deduped"],
    "index": ["__entry_keys__"],
    "get": ["__landscape_values__"],
    "pipeline": ["report", "optimization", "flat_indices", "values", "key"],
    "invalidate": ["removed"],
    "shutdown": ["stopping"],
}


# -- live-daemon plumbing -----------------------------------------------------


def _start_daemon(tmp_path: Path, **overrides) -> LandscapeDaemon:
    tmp_path.mkdir(parents=True, exist_ok=True)
    tokens = tmp_path / "tokens.json"
    tokens.write_text(json.dumps({"golden": GOLDEN_TOKEN, "fuzz": FUZZ_TOKEN}))
    kwargs = dict(
        workers=1,
        cache_dir=tmp_path / "cache",
        tcp=("127.0.0.1", 0),
        tokens_file=tokens,
    )
    kwargs.update(overrides)
    daemon = LandscapeDaemon(tmp_path / "daemon.sock", **kwargs)
    daemon.start()
    return daemon


def _roundtrip(address: tuple[str, int], frame: bytes, timeout: float = 30.0) -> bytes:
    """One frame out, one line (possibly empty = closed) back."""
    with socket.create_connection(address, timeout=timeout) as connection:
        connection.sendall(frame + b"\n")
        with connection.makefile("rb") as stream:
            return stream.readline()


def _request(address: tuple[str, int], message: dict) -> dict:
    line = _roundtrip(address, json.dumps(message).encode("utf-8"))
    assert line, "daemon closed the connection without answering"
    return json.loads(line)


# -- golden vectors -----------------------------------------------------------


def _is_array_codec(value) -> bool:
    return isinstance(value, dict) and set(value) == {"dtype", "shape", "data"}


def _tolerant_equal(actual, pinned, path: str) -> None:
    if _is_array_codec(pinned):
        assert _is_array_codec(actual), f"{path}: expected an array codec"
        np.testing.assert_allclose(
            decode_array(actual),
            decode_array(pinned),
            rtol=0.0,
            atol=1e-9,
            err_msg=f"{path}: array payload drifted",
        )
        assert actual["dtype"] == pinned["dtype"], f"{path}: dtype drifted"
        return
    if isinstance(pinned, dict):
        assert isinstance(actual, dict) and set(actual) == set(pinned), (
            f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
            f" != pinned {sorted(pinned)}"
        )
        for name, value in pinned.items():
            _tolerant_equal(actual[name], value, f"{path}.{name}")
        return
    if isinstance(pinned, list):
        assert isinstance(actual, list) and len(actual) == len(pinned), (
            f"{path}: length drifted"
        )
        for index, value in enumerate(pinned):
            _tolerant_equal(actual[index], value, f"{path}[{index}]")
        return
    if isinstance(pinned, float):
        assert actual == pytest.approx(pinned, abs=1e-9), f"{path}: {actual} != {pinned}"
        return
    assert actual == pinned, f"{path}: {actual!r} != {pinned!r}"


def _landscape_values(response: dict) -> list:
    from repro.landscape.landscape import Landscape
    from repro.service.daemon import decode_blob

    blob = response["landscape"]
    assert blob is not None, "expected a landscape payload"
    return np.asarray(Landscape.from_bytes(decode_blob(blob)).values).tolist()


def _extract_pins(op: str, response: dict) -> dict:
    pins = {}
    for field in PIN_FIELDS[op]:
        if field == "__landscape_values__":
            pins[field] = _landscape_values(response)
        elif field == "__entry_keys__":
            pins[field] = [entry["key"] for entry in response["entries"]]
        else:
            pins[field] = response[field]
    return pins


def _check_pins(op: str, actual_pins: dict, expected_pins: dict) -> None:
    assert set(actual_pins) == set(expected_pins), f"{op}: pin set drifted"
    for field, pinned in expected_pins.items():
        if field == "__landscape_values__":
            np.testing.assert_allclose(
                actual_pins[field], pinned, rtol=0.0, atol=1e-9,
                err_msg=f"{op}: landscape payload drifted",
            )
        else:
            _tolerant_equal(actual_pins[field], pinned, f"{op}.{field}")


def _replay(tmp_path: Path, record: bool) -> list[dict]:
    """Run the golden sequence; return ``[{op, request, response_keys,
    pins}]`` (recording) or compare against the fixture (checking)."""
    daemon = _start_daemon(tmp_path)
    results = []
    key = None
    try:
        for request in golden_requests():
            op = request["op"]
            if op == "shutdown":
                continue  # replayed against its own daemon below
            sent = json.loads(json.dumps(request).replace("__KEY__", key or ""))
            response = _request(daemon.tcp_address, sent)
            assert response.get("ok") is True, f"{op}: {response}"
            assert response.get("version") == 2, f"{op}: missing version echo"
            if op == "compute":
                key = response["key"]
            results.append(
                {
                    "op": op,
                    "request": sent,
                    "response_keys": sorted(response),
                    "pins": _extract_pins(op, response),
                }
            )
    finally:
        daemon.close()

    shutdown_daemon = _start_daemon(tmp_path / "shutdown")
    request = golden_requests()[-1]
    response = _request(shutdown_daemon.tcp_address, request)
    shutdown_daemon.close()
    assert response.get("ok") is True
    results.append(
        {
            "op": "shutdown",
            "request": request,
            "response_keys": sorted(response),
            "pins": _extract_pins("shutdown", response),
        }
    )
    return results


def test_golden_vectors_roundtrip(tmp_path):
    """Every v2 op answers exactly its pinned wire shape."""
    assert FIXTURE_PATH.exists(), (
        f"{FIXTURE_PATH} missing — generate it with "
        "`PYTHONPATH=src python tests/test_wire_protocol.py --regen`"
    )
    pinned = json.loads(FIXTURE_PATH.read_text())
    live = _replay(tmp_path, record=True)
    assert [entry["op"] for entry in live] == [entry["op"] for entry in pinned]
    assert set(PIN_FIELDS) == {entry["op"] for entry in pinned}, (
        "every v2 op needs a golden vector"
    )
    for expected, actual in zip(pinned, live):
        op = expected["op"]
        assert actual["response_keys"] == expected["response_keys"], (
            f"{op}: response key set drifted "
            f"({actual['response_keys']} != {expected['response_keys']})"
        )
        _check_pins(op, actual["pins"], expected["pins"])


def test_golden_vectors_cover_every_v2_op():
    pinned = json.loads(FIXTURE_PATH.read_text())
    assert {entry["op"] for entry in pinned} == set(V2_OPS)


# -- fuzz ---------------------------------------------------------------------

_FUZZ_RUNTIME: dict = {}


def _fuzz_daemon() -> LandscapeDaemon:
    """A long-lived daemon shared by all fuzz examples (hypothesis
    reruns the test body hundreds of times; one daemon keeps the suite
    fast and — deliberately — accumulates all the abuse)."""
    if "daemon" not in _FUZZ_RUNTIME:
        import atexit
        import tempfile

        root = Path(tempfile.mkdtemp(prefix="oscar-fuzz-"))
        daemon = _start_daemon(
            root,
            max_payload_bytes=FUZZ_MAX_PAYLOAD,
            idle_timeout=5.0,
            cache_dir=None,
        )
        atexit.register(daemon.close)
        _FUZZ_RUNTIME["daemon"] = daemon
    return _FUZZ_RUNTIME["daemon"]


def _no_newline(raw: bytes) -> bytes:
    cleaned = raw.replace(b"\n", b"\xff").replace(b"\r", b"\xfe")
    return cleaned if cleaned.strip() else b"\xff"


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

_field_soup = st.fixed_dictionaries(
    {},
    optional={
        "version": st.one_of(
            _json_scalars, st.just(2), st.integers(min_value=-5, max_value=99)
        ),
        "op": st.one_of(
            _json_scalars,
            st.sampled_from(sorted(V2_OPS) + ["evaluate_pickle", "", "_op_ping"]),
        ),
        "token": _json_scalars.filter(lambda v: v != FUZZ_TOKEN),
        "key": _json_scalars,
        "indices": st.one_of(_json_scalars, st.lists(_json_scalars, max_size=4)),
        "batch": _json_scalars,
        "grid": st.one_of(_json_scalars, st.lists(_json_scalars, max_size=3)),
        "function": _json_scalars,
        "ansatz": _json_scalars,
        "task": _json_scalars,
        "rng": _json_scalars,
        "shots": _json_scalars,
    },
)


def _encode(value) -> bytes:
    return _no_newline(json.dumps(value).encode("utf-8"))


_frames = st.one_of(
    # raw junk bytes (never valid JSON headers, often invalid UTF-8)
    st.binary(min_size=1, max_size=200).map(_no_newline),
    # valid JSON that is not an object
    _json_scalars.map(_encode),
    st.lists(_json_scalars, max_size=4).map(_encode),
    # objects with systematically wrong / missing / mistyped fields
    _field_soup.map(_encode),
    # truncated frames (cut mid-JSON)
    _field_soup.map(lambda d: _no_newline(json.dumps(d).encode()[: max(1, len(json.dumps(d)) // 2)])),
    # oversized frames (beyond the fuzz daemon's max_payload_bytes)
    st.just(b"A" * (FUZZ_MAX_PAYLOAD + 64)),
    st.builds(
        lambda pad: _encode({"version": 2, "op": "ping", "pad": pad}),
        st.just("B" * (FUZZ_MAX_PAYLOAD + 64)),
    ),
)


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(frame=_frames)
def test_fuzzed_frames_always_yield_structured_errors(frame):
    """Any hostile frame gets a structured error; the server survives.

    The three-part invariant per example: (1) the daemon answers with
    ``ok: false`` and a registered error ``code`` (it never just drops
    the connection silently, never crashes, never hangs); (2) a
    follow-up authenticated ping on a fresh connection succeeds; (3)
    the in-flight table is empty — no fuzz frame can leak a flight.
    """
    daemon = _fuzz_daemon()
    line = _roundtrip(daemon.tcp_address, frame, timeout=30.0)
    assert line, f"daemon closed without a structured error for {frame[:60]!r}"
    response = json.loads(line)
    assert response.get("ok") is False, f"fuzz frame accepted: {frame[:60]!r}"
    error = response.get("error") or {}
    assert error.get("code") in ERROR_CODES, f"unregistered code in {response}"
    assert isinstance(error.get("message"), str) and error["message"]

    alive = _request(
        daemon.tcp_address, {"version": 2, "op": "ping", "token": FUZZ_TOKEN}
    )
    assert alive.get("ok") is True, "daemon stopped serving after a fuzz frame"
    assert daemon._inflight == {}, "fuzz frame leaked an in-flight entry"


def test_fuzz_daemon_counters_saw_the_abuse():
    """Ordering shim: runs after the fuzz test (pytest executes in file
    order) and pins that the errors counter actually moved — i.e. the
    fuzz frames reached the dispatch path rather than dying in
    transport limbo."""
    daemon = _fuzz_daemon()
    stats = _request(
        daemon.tcp_address, {"version": 2, "op": "stats", "token": FUZZ_TOKEN}
    )
    assert stats["counters"]["errors"] >= 100


# -- raw keys and request integers at the wire boundary -----------------------


def test_raw_keys_cannot_leave_the_tenant_namespace(tmp_path):
    """``get``/``invalidate`` take only store keys: a path-shaped key is
    ``malformed``, so alice can neither read nor drop bob's entry and
    cannot delete a file outside the cache."""
    tokens = tmp_path / "tenants.json"
    tokens.write_text(json.dumps({"alice": "tok-alice", "bob": "tok-bob"}))
    daemon = _start_daemon(tmp_path, tokens_file=tokens)
    victim = tmp_path / "victim.json"
    victim.write_text("{}")
    try:
        computed = _request(
            daemon.tcp_address,
            {
                "version": 2,
                "op": "compute",
                "token": "tok-bob",
                "function": GOLDEN_FUNCTION,
                "grid": GOLDEN_GRID,
            },
        )
        key = computed["key"]
        for op, probe in (
            ("get", f"../bob/{key}"),
            ("invalidate", f"../bob/{key}"),
            ("invalidate", "../../../victim"),
        ):
            response = _request(
                daemon.tcp_address,
                {"version": 2, "op": op, "token": "tok-alice", "key": probe},
            )
            assert response["ok"] is False, (op, probe, response)
            assert response["error"]["code"] == "malformed", (op, probe)
        kept = _request(
            daemon.tcp_address,
            {"version": 2, "op": "get", "token": "tok-bob", "key": key},
        )
        assert kept["landscape"] is not None, "bob's entry must survive"
        assert victim.exists(), "a file outside the cache was deleted"
    finally:
        daemon.close()


@pytest.mark.parametrize("op", ["compute", "compute_indices"])
@pytest.mark.parametrize(
    "field, value, code",
    [
        ("seed", -1, "invalid-spec"),
        ("seed", "x", "malformed"),
        ("seed", 2.5, "malformed"),
    ],
)
def test_request_integers_are_checked_at_the_wire(tmp_path, op, field, value, code):
    """Seeds must be integers >= 0: anything else is the client's
    error (``malformed`` for a wrong type, ``invalid-spec`` below the
    bound), never ``internal`` and never silently truncated, and it
    leaves no in-flight entry behind."""
    daemon = _start_daemon(tmp_path)
    try:
        request = {
            "version": 2,
            "op": op,
            "token": GOLDEN_TOKEN,
            "function": GOLDEN_FUNCTION,
            "grid": GOLDEN_GRID,
            field: value,
        }
        if op == "compute_indices":
            request["indices"] = [0, 3, 7]
        response = _request(daemon.tcp_address, request)
        assert response["ok"] is False, response
        assert response["error"]["code"] == code, response["error"]
        assert daemon._inflight == {}
    finally:
        daemon.close()


def _assert_pipeline_refused_before_work(tmp_path: Path, **overrides) -> None:
    """The golden ``pipeline`` request with ``overrides`` in its config
    is ``invalid-spec``, answered before sampling, evaluation or
    reconstruction run: no work counter moves."""
    (pipeline,) = [r for r in golden_requests() if r["op"] == "pipeline"]
    request = {**pipeline, "config": {**pipeline["config"], **overrides}}
    stats = {"version": 2, "op": "stats", "token": GOLDEN_TOKEN}
    daemon = _start_daemon(tmp_path)
    try:
        before = _request(daemon.tcp_address, stats)["counters"]
        response = _request(daemon.tcp_address, request)
        assert response["ok"] is False, response
        assert response["error"]["code"] == "invalid-spec", response["error"]
        after = _request(daemon.tcp_address, stats)["counters"]
        for counter in ("requests", "errors"):
            before.pop(counter)
            after.pop(counter)
        assert after == before
    finally:
        daemon.close()


@pytest.mark.parametrize(
    "optimizer, options",
    [
        # The first two ids are the ones pytest generated for these cases
        # before the optimizer column, so the cases keep their names.
        pytest.param("cobyla", {"bogus": 1}, id="options0"),
        pytest.param("cobyla", [1, 2], id="options1"),
        pytest.param("cobyla", {"maxiter": "x"}, id="cobyla-string-maxiter"),
        pytest.param(
            "nelder-mead", {"maxiter": "x"}, id="nelder-mead-string-maxiter"
        ),
        pytest.param(
            "gradient-descent",
            {"maxiter": "x"},
            id="gradient-descent-string-maxiter",
        ),
        pytest.param("cobyla", {"rhobeg": -1.0}, id="cobyla-negative-rhobeg"),
        pytest.param("cobyla", {"maxiter": True}, id="cobyla-bool-maxiter"),
        pytest.param("nelder-mead", {"maxiter": 0}, id="nelder-mead-zero-maxiter"),
        pytest.param("adam", {"maxiter": True}, id="adam-bool-maxiter"),
    ],
)
def test_pipeline_optimizer_options_are_checked_before_any_work(
    tmp_path, optimizer, options
):
    """``optimizer_options`` the optimizer cannot take (an unknown
    keyword, a non-mapping, a ``maxiter`` that is not a positive
    integer, a ``rhobeg`` that is not a positive number) are refused
    before any work."""
    _assert_pipeline_refused_before_work(
        tmp_path, optimizer=optimizer, optimizer_options=options
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"reconstruction": {"solver": "nope"}},
        {"reconstruction": {"lam": "x"}},
        {"reconstruction": {"lam": -1.0}},
        {"reconstruction": {"max_iterations": 0}},
        {"reconstruction": {"max_iterations": -3}},
        {"reconstruction": {"tolerance": True}},
        {"reconstruction": {"tolerance": float("inf")}},
        {"reconstruction": {"penalize_dc": "yes"}},
        {"reconstruction": {"lipschitz": None}},
        {"reconstruction": {"adaptive_restart": True}},
        {"reconstruction": {"solver": "omp", "max_atoms": 2.5}},
        {"reconstruction": {"solver": "omp", "max_atoms": True}},
        {"initial_point": [0.1]},
        {"initial_point": [0.1, 0.2, 0.3]},
        {"initial_point": "12"},
        {"initial_point": ["nan", 0.1]},
        {"initial_point": [True, 0.1]},
        {"fraction": True},
    ],
    ids=[
        "unknown-solver",
        "lam-not-a-number",
        "negative-lam",
        "zero-iterations",
        "negative-iterations",
        "bool-tolerance",
        "infinite-tolerance",
        "penalize_dc-not-a-bool",
        "lipschitz-is-not-a-field",
        "adaptive_restart-is-not-a-field",
        "fractional-max_atoms",
        "bool-max_atoms",
        "initial_point-too-short",
        "initial_point-too-long",
        "string-initial_point",
        "nan-string-in-initial_point",
        "bool-in-initial_point",
        "bool-fraction",
    ],
)
def test_pipeline_config_is_checked_before_any_work(tmp_path, overrides):
    """Every field of the pipeline config — the reconstruction knobs
    (no unknown field, integer ``max_atoms``), the initial point's type,
    values and length against the grid, the fraction's type — is
    checked before any sample is drawn."""
    _assert_pipeline_refused_before_work(tmp_path, **overrides)


# -- the no-pickle gate -------------------------------------------------------

SERVICE_DIR = Path(protocol_module.__file__).parent

#: Modules the service layer must never import or touch.
FORBIDDEN_MODULES = {"pickle", "cPickle", "_pickle", "socketserver"}


def _forbidden_uses(source: str) -> list[str]:
    """Imports of (and names bound to) a forbidden module in ``source``.
    Docstrings and comments may *mention* pickle; code may not use it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Name):
            modules = [node.id]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in modules
            if name.split(".")[0] in FORBIDDEN_MODULES
        ]
    return found


def _reachable_sources() -> dict[str, str]:
    """Source text of every function a request can reach on either
    listener: the whole dispatch table, the transport/dispatch layer
    above it, the compute helpers below it, and the spec-registry
    module."""
    sources = {
        f"V2_OPS[{name!r}]": inspect.getsource(handler)
        for name, handler in V2_OPS.items()
    }
    for name in (
        "handle_line",
        "_authenticate",
        "_error_payload",
        "_error_response",
        "_v2_rng",
        "_v2_generator",
        "_v2_spec_for",
        "_int_field",
        "_sparse_values",
        "_sparse_identity",
        "_single_flight",
        "_listen",
        "_connection",
        "_session",
        "_send",
    ):
        sources[f"LandscapeDaemon.{name}"] = inspect.getsource(
            getattr(LandscapeDaemon, name)
        )
    sources["repro.service.protocol"] = inspect.getsource(protocol_module)
    return sources


def test_no_pickle_in_the_service_layer():
    """No module under ``repro/service`` imports or uses ``pickle`` or
    ``socketserver``, and no v1 handler survives on the daemon or the
    client: the only wire dialect is the declarative one."""
    modules = sorted(SERVICE_DIR.glob("*.py"))
    assert {path.name for path in modules} >= {"daemon.py", "client.py", "protocol.py"}
    for path in modules:
        uses = _forbidden_uses(path.read_text(encoding="utf-8"))
        assert not uses, f"{path.name} uses a forbidden module: {uses}"
    # ... nor in anything a request reaches, wherever it is defined.
    for name, source in _reachable_sources().items():
        assert not _forbidden_uses(textwrap.dedent(source)), name
    leftovers = [
        name
        for name in dir(LandscapeDaemon)
        if name.startswith("_op_") or name == "_handle_v1"
    ]
    assert leftovers == [], f"v1 handlers left on LandscapeDaemon: {leftovers}"
    for name in ("_v1_frame", "evaluate_ansatz_indices", "_sparse_ansatz_frame"):
        assert not hasattr(LandscapeClient, name), name


def test_v2_table_is_the_only_tcp_dispatch():
    """Both listeners run one session loop that hands every frame to
    ``handle_line`` with its transport, and ``handle_line`` reaches
    handlers only through ``V2_OPS`` (unversioned frames raise before
    any handler runs)."""
    session = inspect.getsource(LandscapeDaemon._session)
    assert "handle_line" in session and "transport" in session
    dispatch = inspect.getsource(LandscapeDaemon.handle_line)
    assert "V2_OPS.get(op)" in dispatch and "getattr" not in dispatch
    assert "SUPPORTED_VERSIONS" in dispatch


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        raise SystemExit(
            "usage: PYTHONPATH=src python tests/test_wire_protocol.py --regen"
        )
    import tempfile

    with tempfile.TemporaryDirectory(prefix="oscar-golden-") as tmp:
        vectors = _replay(Path(tmp), record=True)
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(vectors, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(vectors)} golden vectors to {FIXTURE_PATH}")
