"""Wire protocol v2: versioned, pickle-free JSON messages.

The daemon's only wire dialect, spoken identically on the Unix socket
and the TCP listener.  Nothing a client sends is ever executed or
unpickled, so the daemon can face a network:

- every message carries ``"version": 2``; unversioned or wrong-version
  frames (including the retired v1 dialect, which shipped pickled
  tasks) get a structured ``unsupported-version`` error;
- requests are **declarative JSON specs** — the same canonical payloads
  :class:`~repro.service.store.LandscapeSpec` hashes into cache keys
  (``Ansatz.cache_spec`` / ``NoiseModel.cache_spec`` / the cost-function
  ``cache_spec``) — resolved server-side by the registry in this module
  (:func:`ansatz_from_spec`, :func:`function_from_spec`,
  :func:`grid_from_spec`).  A payload outside the registry has no wire
  form at all: clients run it in-process instead;
- binary payloads are explicit codecs: landscapes are
  :func:`encode_landscape`/:func:`decode_landscape` (base64 of
  ``Landscape.to_bytes``, the store's payload bytes), numeric arrays are
  :func:`encode_array`/:func:`decode_array` (dtype-allowlisted raw
  bytes), rng state is :func:`encode_rng_state` (the numpy
  bit-generator state dict, JSON-ified);
- failures are structured ``{"code", "type", "message", "retryable"}``
  error objects (codes in :data:`ERROR_CODES`), so clients can
  distinguish an auth failure from an overload shed from a bad spec.

The module also owns the **bearer-token** model of the TCP front:
:func:`load_tokens` parses a tenant→token file and
:func:`authenticate` performs the constant-time lookup
(:func:`hmac.compare_digest` against every credential, so timing never
reveals which token prefix matched).
"""

from __future__ import annotations

import base64
import hmac
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..utils import is_finite_real

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "ERROR_CODES",
    "DEFAULT_TENANT",
    "ProtocolError",
    "TenantCredential",
    "load_tokens",
    "authenticate",
    "encode_array",
    "decode_array",
    "encode_landscape",
    "decode_landscape",
    "encode_rng_state",
    "decode_rng_state",
    "apply_rng_state",
    "rng_from_state",
    "grid_to_spec",
    "grid_from_spec",
    "noise_to_spec",
    "noise_from_spec",
    "ansatz_from_spec",
    "ansatz_to_spec",
    "function_from_spec",
    "function_to_spec",
]

#: The current wire protocol version; every v2 message carries it.
PROTOCOL_VERSION = 2

#: Versions this server generation understands.  v1 (unversioned pickle
#: frames) is retired on every transport.
SUPPORTED_VERSIONS = (PROTOCOL_VERSION,)

#: Structured error codes a v2 response may carry.
ERROR_CODES = (
    "auth",  # missing/unknown/expired bearer token
    "unsupported-version",  # missing or unknown "version" field
    "malformed",  # not JSON, not an object, wrong field type
    "unknown-op",  # op not in the v2 dispatch table
    "invalid-spec",  # declarative spec failed server-side resolution
    "too-large",  # frame exceeds the payload limit
    "overloaded",  # connection/request cap shed (retryable)
    "internal",  # handler raised something unstructured
)

#: The implicit tenant of unauthenticated Unix-socket requests — the
#: daemon's default (pre-tenant) store keeps serving under this name.
DEFAULT_TENANT = "local"

#: Tenant names become store path components, so they are restricted to
#: a conservative slug alphabet (no separators, no dot-dot, no hidden
#: files).
_TENANT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}\Z")

#: Bit generators whose state dicts the rng codec round-trips.  numpy's
#: stock generators only — restoring state never executes anything, but
#: an allowlist keeps the wire format explicit.
_BIT_GENERATORS = ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")

#: dtypes :func:`decode_array` will materialize.  Raw numeric buffers
#: only — never object arrays, so the codec cannot smuggle pickles.
_ARRAY_DTYPES = ("float64", "int64")


class ProtocolError(Exception):
    """A structured wire-protocol failure.

    Args:
        code: one of :data:`ERROR_CODES`.
        message: human-readable detail.
        retryable: whether the client may simply retry (load sheds are,
            malformed requests are not).
    """

    def __init__(self, code: str, message: str, retryable: bool = False):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.retryable = bool(retryable)


# -- token auth ---------------------------------------------------------------


@dataclass(frozen=True)
class TenantCredential:
    """One tenant's bearer token plus its store policy.

    Attributes:
        tenant: namespace name (store path component, counter key).
        token: the bearer secret presented on every request.
        quota_bytes: per-tenant store byte budget (``None`` = the
            daemon's default tenant quota).
        expires: Unix timestamp after which the token stops
            authenticating (``None`` = never).
    """

    tenant: str
    token: str
    quota_bytes: int | None = None
    expires: float | None = None


def load_tokens(path: str | Path) -> tuple[TenantCredential, ...]:
    """Parse a tokens file into :class:`TenantCredential` entries.

    The file is one JSON object mapping tenant name to either the bare
    token string or ``{"token": ..., "quota_bytes": ..., "expires":
    ...}``::

        {
          "alice": "alice-secret",
          "bob": {"token": "bob-secret", "quota_bytes": 4194304}
        }

    A ``quota_bytes`` must be a positive integer and an ``expires`` a
    finite number (bools rejected in both), so a bad entry fails here,
    not on the tenant's first request.
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or not raw:
        raise ValueError(f"tokens file {path} must be a non-empty JSON object")
    credentials = []
    seen_tokens: set[str] = set()
    for tenant, entry in raw.items():
        if not isinstance(tenant, str) or not _TENANT_NAME.match(tenant):
            raise ValueError(
                f"invalid tenant name {tenant!r} in {path}: tenant names "
                "are [A-Za-z0-9][A-Za-z0-9._-]* and at most 64 characters"
            )
        if isinstance(entry, str):
            entry = {"token": entry}
        if not isinstance(entry, dict) or not isinstance(entry.get("token"), str):
            raise ValueError(
                f"tenant {tenant!r} in {path} needs a string token "
                "(bare or under a 'token' key)"
            )
        token = entry["token"]
        if not token:
            raise ValueError(f"tenant {tenant!r} in {path} has an empty token")
        if token in seen_tokens:
            raise ValueError(
                f"duplicate token in {path}: two tenants sharing a secret "
                "would make authentication ambiguous"
            )
        seen_tokens.add(token)
        quota = entry.get("quota_bytes")
        if quota is not None and (type(quota) is not int or quota < 1):
            raise ValueError(
                f"tenant {tenant!r} in {path}: quota_bytes must be a positive "
                f"integer, got {quota!r}"
            )
        expires = entry.get("expires")
        if expires is not None and not is_finite_real(expires):
            raise ValueError(
                f"tenant {tenant!r} in {path}: expires must be a finite "
                f"number (a Unix timestamp) or null, got {expires!r}"
            )
        credentials.append(
            TenantCredential(
                tenant=tenant,
                token=token,
                quota_bytes=quota,
                expires=None if expires is None else float(expires),
            )
        )
    return tuple(credentials)


def authenticate(
    credentials: Sequence[TenantCredential],
    token: str,
) -> TenantCredential:
    """Constant-time bearer-token lookup.

    Every credential is compared with :func:`hmac.compare_digest` and
    the scan never exits early, so response timing does not reveal
    which token (or token prefix) exists.  Raises
    :class:`ProtocolError` with code ``auth`` for unknown and expired
    tokens alike; a token expires once :func:`time.time` passes its
    ``expires`` stamp.
    """
    presented = token.encode("utf-8")
    matched: TenantCredential | None = None
    for credential in credentials:
        if hmac.compare_digest(credential.token.encode("utf-8"), presented):
            matched = credential
    if matched is None:
        raise ProtocolError("auth", "unknown bearer token")
    if matched.expires is not None:
        if time.time() > matched.expires:
            raise ProtocolError("auth", "bearer token has expired")
    return matched


# -- binary codecs ------------------------------------------------------------


def encode_array(values: np.ndarray) -> dict[str, Any]:
    """Numeric array -> JSON-safe ``{dtype, shape, data}`` payload."""
    values = np.ascontiguousarray(values)
    dtype = str(values.dtype)
    if dtype not in _ARRAY_DTYPES:
        values = np.ascontiguousarray(values, dtype=float)
        dtype = "float64"
    return {
        "dtype": dtype,
        "shape": [int(n) for n in values.shape],
        "data": base64.b64encode(values.tobytes()).decode("ascii"),
    }


def decode_array(payload: Any) -> np.ndarray:
    """Inverse of :func:`encode_array`; rejects non-numeric dtypes."""
    if not isinstance(payload, dict):
        raise ProtocolError("malformed", "array payload must be an object")
    dtype = payload.get("dtype")
    if dtype not in _ARRAY_DTYPES:
        raise ProtocolError(
            "malformed",
            f"array dtype must be one of {_ARRAY_DTYPES}, got {dtype!r}",
        )
    shape = payload.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(n, int) and n >= 0 for n in shape
    ):
        raise ProtocolError("malformed", "array shape must be a list of ints")
    try:
        data = base64.b64decode(str(payload.get("data", "")).encode("ascii"))
        flat = np.frombuffer(data, dtype=np.dtype(dtype))
        return flat.reshape(shape).copy()
    except (ValueError, TypeError) as error:
        raise ProtocolError("malformed", f"undecodable array payload: {error}")


def encode_landscape(landscape) -> str:
    """Landscape -> JSON-safe base64 of its ``.npz`` bytes (the same
    bytes the store keeps as the entry's payload)."""
    return base64.b64encode(landscape.to_bytes()).decode("ascii")


def decode_landscape(text: str):
    """Inverse of :func:`encode_landscape`."""
    from ..landscape.landscape import Landscape

    return Landscape.from_bytes(base64.b64decode(text.encode("ascii")))


def _jsonify(value: Any) -> Any:
    """Make a numpy bit-generator state dict JSON-able (arrays become
    tagged lists — MT19937/Philox keys are uint arrays)."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _unjsonify(value: Any) -> Any:
    """Inverse of :func:`_jsonify`."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=np.dtype(value["dtype"]))
        return {key: _unjsonify(item) for key, item in value.items()}
    return value


def encode_rng_state(rng: np.random.Generator | None) -> dict[str, Any] | None:
    """Generator -> JSON-safe bit-generator state payload (``None`` for
    no generator, the wire's "no rng")."""
    if rng is None:
        return None
    state = rng.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": _jsonify(state),
    }


def decode_rng_state(payload: Any) -> dict[str, Any]:
    """Validate and un-JSON-ify an rng state payload."""
    if not isinstance(payload, dict):
        raise ProtocolError("malformed", "rng payload must be an object")
    name = payload.get("bit_generator")
    if name not in _BIT_GENERATORS:
        raise ProtocolError(
            "malformed",
            f"rng bit generator must be one of {_BIT_GENERATORS}, got {name!r}",
        )
    state = _unjsonify(payload.get("state"))
    if not isinstance(state, dict) or state.get("bit_generator") != name:
        raise ProtocolError("malformed", "rng state does not match its bit generator")
    return state


def rng_from_state(payload: Any) -> np.random.Generator:
    """Build a fresh generator positioned at the encoded state."""
    state = decode_rng_state(payload)
    bit_generator = getattr(np.random, state["bit_generator"])()
    try:
        bit_generator.state = state
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError("malformed", f"invalid rng state: {error}")
    return np.random.Generator(bit_generator)


def apply_rng_state(rng: np.random.Generator, payload: Any) -> None:
    """Advance the caller's generator to the encoded state (the
    client-side write-back after a server-side evaluation)."""
    state = decode_rng_state(payload)
    if state["bit_generator"] != rng.bit_generator.state["bit_generator"]:
        raise ProtocolError(
            "malformed",
            "returned rng state uses a different bit generator than the "
            "caller's generator",
        )
    rng.bit_generator.state = state


# -- grid and noise specs -----------------------------------------------------


def _spec_int(value: Any, what: str) -> int:
    """A spec integer: never a float, string or bool to truncate."""
    if type(value) is not int:
        raise ProtocolError(
            "invalid-spec", f"{what} must be an integer, got {value!r}"
        )
    return value



def grid_to_spec(grid: Any) -> list[dict[str, Any]] | None:
    """Grid -> per-axis spec list, or ``None`` for duck-typed grids.

    The axis shape is exactly what
    :meth:`~repro.service.store.LandscapeSpec.from_parts` records, so a
    v2 request and the server-derived cache key describe the grid
    identically.  Stand-in grids (test doubles with only
    ``points_from_flat``) are not declaratively describable — callers
    evaluate them in-process.
    """
    from ..landscape.grid import ParameterGrid

    if not isinstance(grid, ParameterGrid):
        return None
    return [
        {
            "name": axis.name,
            "low": float(axis.low),
            "high": float(axis.high),
            "num_points": int(axis.num_points),
        }
        for axis in grid.axes
    ]


def grid_from_spec(axes: Any):
    """Per-axis spec list -> :class:`~repro.landscape.grid.ParameterGrid`.
    An axis's ``num_points`` must be an integer, never a truncated float."""
    from ..landscape.grid import GridAxis, ParameterGrid

    if not isinstance(axes, list) or not axes:
        raise ProtocolError("invalid-spec", "grid spec must be a non-empty list")
    built = []
    for axis in axes:
        if not isinstance(axis, dict):
            raise ProtocolError("invalid-spec", "each grid axis must be an object")
        num_points = _spec_int(axis.get("num_points"), "grid axis num_points")
        try:
            built.append(
                GridAxis(
                    name=str(axis["name"]),
                    low=float(axis["low"]),
                    high=float(axis["high"]),
                    num_points=num_points,
                )
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError("invalid-spec", f"invalid grid axis: {error}")
    return ParameterGrid(tuple(built))


def noise_to_spec(noise: Any) -> Any:
    """Noise model(s) -> spec; handles ``None``, one model, or a
    per-row sequence.  Returns the models' own canonical
    ``cache_spec`` payloads."""
    if noise is None:
        return None
    if isinstance(noise, (list, tuple)):
        return [noise_to_spec(model) for model in noise]
    return noise.cache_spec()


def noise_from_spec(payload: Any):
    """Inverse of :func:`noise_to_spec`."""
    from ..quantum.noise import NoiseModel

    if payload is None:
        return None
    if isinstance(payload, list):
        return [noise_from_spec(item) for item in payload]
    if not isinstance(payload, dict):
        raise ProtocolError("invalid-spec", "noise spec must be an object or null")
    try:
        return NoiseModel(
            p1=float(payload.get("p1", 0.0)),
            p2=float(payload.get("p2", 0.0)),
            readout=float(payload.get("readout", 0.0)),
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError("invalid-spec", f"invalid noise spec: {error}")


# -- the ansatz / cost-function registry --------------------------------------


def _pauli_sum_from_spec(rows: Any):
    """``[[label, re, im], ...]`` (the ``_pauli_sum_spec`` shape) ->
    :class:`~repro.problems.pauli.PauliSum`.  Deterministic: the sum
    sorts and merges terms itself, so rebuild order cannot differ from
    the original."""
    from ..problems.pauli import PauliString, PauliSum

    if not isinstance(rows, list) or not rows:
        raise ProtocolError(
            "invalid-spec", "hamiltonian spec must be a non-empty term list"
        )
    try:
        return PauliSum(
            PauliString(str(label), complex(float(re), float(im)))
            for label, re, im in rows
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError("invalid-spec", f"invalid hamiltonian spec: {error}")


def _qaoa_from_spec(spec: Mapping[str, Any]):
    from ..ansatz import QaoaAnsatz
    from ..problems.ising import IsingProblem

    problem = spec.get("problem")
    if not isinstance(problem, dict):
        raise ProtocolError("invalid-spec", "qaoa spec needs a 'problem' object")
    qubit = "qaoa problem qubit"
    try:
        ising = IsingProblem(
            num_qubits=_spec_int(spec.get("num_qubits"), "qaoa num_qubits"),
            couplings=tuple(
                (_spec_int(i, qubit), _spec_int(j, qubit), float(w))
                for i, j, w in problem.get("couplings", [])
            ),
            fields=tuple(
                (_spec_int(i, qubit), float(h)) for i, h in problem.get("fields", [])
            ),
            offset=float(problem.get("offset", 0.0)),
            name="wire",
        )
        return QaoaAnsatz(ising, p=_spec_int(spec.get("p"), "qaoa p"))
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError("invalid-spec", f"invalid qaoa spec: {error}")


def _twolocal_from_spec(spec: Mapping[str, Any]):
    from ..ansatz import TwoLocalAnsatz

    try:
        return TwoLocalAnsatz(
            _pauli_sum_from_spec(spec.get("hamiltonian")),
            reps=_spec_int(spec.get("reps"), "twolocal reps"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError("invalid-spec", f"invalid twolocal spec: {error}")


def _uccsd_from_spec(spec: Mapping[str, Any]):
    from ..ansatz import UccsdAnsatz

    excitations = spec.get("excitations")
    if not isinstance(excitations, list):
        raise ProtocolError("invalid-spec", "uccsd spec needs an excitation list")
    try:
        return UccsdAnsatz(
            _pauli_sum_from_spec(spec.get("hamiltonian")),
            num_parameters=_spec_int(spec.get("num_parameters"), "num_parameters"),
            excitations=[
                tuple(_spec_int(q, "uccsd excitation qubit") for q in exc)
                for exc in excitations
            ],
            initial_bitstring=spec.get("initial_bitstring"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError("invalid-spec", f"invalid uccsd spec: {error}")


#: Ansatz registry: ``cache_spec()["type"]`` -> builder.  The specs are
#: exactly the canonical payloads the store hashes, so anything the
#: cache can key, the wire can ship.
ANSATZ_BUILDERS: dict[str, Callable[[Mapping[str, Any]], Any]] = {
    "qaoa": _qaoa_from_spec,
    "twolocal": _twolocal_from_spec,
    "uccsd": _uccsd_from_spec,
}


def ansatz_from_spec(spec: Any):
    """Resolve an ansatz ``cache_spec`` payload into a live instance."""
    if not isinstance(spec, Mapping):
        raise ProtocolError("invalid-spec", "ansatz spec must be an object")
    kind = spec.get("type")
    builder = ANSATZ_BUILDERS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ProtocolError(
            "invalid-spec",
            f"unknown ansatz type {kind!r}; registered: "
            f"{sorted(ANSATZ_BUILDERS)}",
        )
    return builder(spec)


def _ansatz_function_from_spec(
    spec: Mapping[str, Any], rng: np.random.Generator | None
):
    from ..landscape.generator import AnsatzCostFunction

    shots = spec.get("shots")
    return AnsatzCostFunction(
        ansatz_from_spec(spec.get("ansatz")),
        noise=noise_from_spec(spec.get("noise")),
        shots=None if shots is None else _spec_int(shots, "shots"),
        rng=rng,
    )


def _zne_function_from_spec(
    spec: Mapping[str, Any], rng: np.random.Generator | None
):
    from ..mitigation.zne import ZneConfig, ZneCostFunction

    noise = noise_from_spec(spec.get("noise"))
    if noise is None:
        raise ProtocolError("invalid-spec", "zne spec needs a noise model")
    mitigation = spec.get("mitigation")
    if not isinstance(mitigation, Mapping):
        raise ProtocolError("invalid-spec", "zne spec needs a 'mitigation' object")
    shots = spec.get("shots")
    try:
        config = ZneConfig(
            scale_factors=tuple(
                float(scale) for scale in mitigation["scale_factors"]
            ),
            method=str(mitigation["method"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError("invalid-spec", f"invalid zne mitigation spec: {error}")
    return ZneCostFunction(
        ansatz_from_spec(spec.get("ansatz")),
        noise,
        config=config,
        shots=None if shots is None else _spec_int(shots, "shots"),
        rng=rng,
    )


#: Cost-function registry: ``cache_spec()["kind"]`` -> builder.
FUNCTION_BUILDERS: dict[str, Callable[..., Any]] = {
    "ansatz": _ansatz_function_from_spec,
    "zne": _zne_function_from_spec,
}


def function_from_spec(spec: Any, rng: np.random.Generator | None = None):
    """Resolve a cost-function ``cache_spec`` payload into a callable.

    ``rng`` (decoded from the request's rng state, if any) is bound to
    the resolved function exactly where a local construction would bind
    it, preserving the draw-order contract over the wire.
    """
    if not isinstance(spec, Mapping):
        raise ProtocolError("invalid-spec", "function spec must be an object")
    kind = spec.get("kind")
    builder = FUNCTION_BUILDERS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ProtocolError(
            "invalid-spec",
            f"unknown cost-function kind {kind!r}; registered: "
            f"{sorted(FUNCTION_BUILDERS)}",
        )
    return builder(spec, rng)


def _names_a_builder(spec: Any, field: str, registry: Mapping[str, Any]) -> bool:
    """Whether ``spec[field]`` names an entry of ``registry``."""
    name = spec.get(field) if isinstance(spec, Mapping) else None
    return isinstance(name, str) and name in registry


def function_to_spec(function: Any) -> dict[str, Any] | None:
    """Cost function -> declarative spec, or ``None`` when the function
    cannot describe itself in registry terms (a plain closure, a test
    double, ``CdrCostFunction``, ``SliceCostFunction``) — the caller then
    runs it in-process."""
    try:
        spec = function.cache_spec()
    except (TypeError, ValueError, AttributeError):
        return None
    if _names_a_builder(spec, "kind", FUNCTION_BUILDERS) and _names_a_builder(
        spec.get("ansatz"), "type", ANSATZ_BUILDERS
    ):
        return spec
    return None


def ansatz_to_spec(ansatz: Any) -> dict[str, Any] | None:
    """Ansatz -> declarative spec, or ``None`` when unregistered."""
    try:
        spec = ansatz.cache_spec()
    except (TypeError, ValueError, AttributeError):
        return None
    return spec if _names_a_builder(spec, "type", ANSATZ_BUILDERS) else None
