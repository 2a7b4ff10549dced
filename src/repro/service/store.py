"""Content-addressed on-disk landscape store.

A generated :class:`~repro.landscape.landscape.Landscape` is a pure
function of *what* was executed: the ansatz and problem content, the
grid, the noise model, the shot budget and mitigation config, and — for
shot-noise landscapes — the rng plan (root seed + shard layout).
:class:`LandscapeSpec` captures exactly that as a canonical, JSON-able
payload; its deterministic serialization is hashed into the cache key,
so two processes that describe the same experiment derive the same key
and share the same artifact.

Store layout (one directory, two files per entry)::

    <root>/
        <key>.npz    # Landscape.to_bytes() (values + axes + metadata)
        <key>.json   # manifest: spec payload, label, creation time

The manifest keeps the full spec next to the payload so entries are
self-describing (``oscar-repro cache list`` prints them); only ``put``
writes it.  Recency is the payload's mtime, which ``put`` and every hit
set to the wall clock in ns, and :meth:`LandscapeStore.put` evicts the
least recently used entries until the store fits ``max_bytes`` again.
The entry being written is exempt, so a single landscape larger than
the budget still caches.  LRU resolution is the file system's
timestamp resolution, and a backward wall-clock step can misorder
recency but never loses or corrupts an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..landscape.grid import ParameterGrid
from ..landscape.landscape import Landscape
from .protocol import DEFAULT_TENANT

__all__ = [
    "LandscapeSpec",
    "LandscapeStore",
    "StoreEntry",
    "TenantStores",
    "is_store_key",
]

#: Hex characters of the sha256 digest used as the cache key (128 bits:
#: collision-safe for any realistic store size, short enough for ls).
_KEY_HEX = 32

_KEY_PATTERN = re.compile(rf"[0-9a-f]{{{_KEY_HEX}}}\Z")


def is_store_key(key: Any) -> bool:
    """Whether ``key`` has the shape of a store key (:data:`_KEY_HEX`
    lowercase hex characters).

    Keys become file names under the store root, so a raw key from
    outside the program (a daemon request, a CLI argument) must pass
    this check before it reaches a path: ``"../bob/<key>"`` would
    otherwise name another tenant's entry.
    """
    return isinstance(key, str) and _KEY_PATTERN.match(key) is not None


def _canonical(value: Any) -> Any:
    """Normalize a spec payload fragment for deterministic hashing.

    Numbers are canonicalized (bools stay bools, integral floats stay
    floats — ``2.0`` and ``2`` are *different* content), sequences become
    lists, mappings keep string keys.  Anything else is rejected so a
    non-serializable object can never silently weaken the cache key.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, Mapping):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"spec mapping keys must be str, got {key!r}")
            out[key] = _canonical(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    # numpy scalars quack like their python twins.
    if hasattr(value, "item"):
        return _canonical(value.item())
    raise TypeError(f"spec payloads must be JSON-able, got {type(value).__name__}")


@dataclass(frozen=True)
class LandscapeSpec:
    """Canonical description of one landscape-generation request.

    Attributes:
        ansatz: content description of the bound cost function — ansatz
            class, structural parameters, and the full problem content
            (couplings / Pauli terms), as produced by
            :meth:`repro.ansatz.base.Ansatz.cache_spec`.  For mitigated
            cost functions this nests the mitigation config too (see
            ``ZneCostFunction.cache_spec``).
        grid: one ``{name, low, high, num_points}`` mapping per axis.
        shots: per-query measurement shots (``None`` = exact).
        execution: the rng plan for shot-noise landscapes —
            ``{"seed": int, "shard_points": int}`` (the first shard's
            size in the layout derived from the grid size) — because
            sampled values depend on it.  ``None`` for exact
            landscapes, whose values are execution-plan independent
            (the same key is shared by any worker count).

    Two specs with the same content resolve to the same key no matter
    which process (or machine) derived them::

        >>> from repro.landscape import qaoa_grid
        >>> from repro.service import LandscapeSpec
        >>> grid = qaoa_grid(p=1, resolution=(4, 8))
        >>> content = {"kind": "demo", "couplings": [[0, 1, 1.0]]}
        >>> first = LandscapeSpec.from_parts(content, grid)
        >>> second = LandscapeSpec.from_parts(dict(content), grid)
        >>> first.key() == second.key()
        True
        >>> first.key() == LandscapeSpec.from_parts(content, grid, shots=100).key()
        False
    """

    ansatz: Mapping[str, Any]
    grid: tuple[Mapping[str, Any], ...]
    shots: int | None = None
    execution: Mapping[str, Any] | None = None

    @classmethod
    def from_parts(
        cls,
        function_spec: Mapping[str, Any],
        grid: ParameterGrid,
        shots: int | None = None,
        execution: Mapping[str, Any] | None = None,
    ) -> "LandscapeSpec":
        """Assemble a spec from a cost-function description and a grid."""
        axes = tuple(
            {
                "name": axis.name,
                "low": float(axis.low),
                "high": float(axis.high),
                "num_points": int(axis.num_points),
            }
            for axis in grid.axes
        )
        return cls(
            ansatz=dict(function_spec),
            grid=axes,
            shots=None if shots is None else int(shots),
            execution=None if execution is None else dict(execution),
        )

    def payload(self) -> dict[str, Any]:
        """The canonical nested payload (what gets serialized + hashed)."""
        return _canonical(
            {
                "ansatz": self.ansatz,
                "grid": list(self.grid),
                "shots": self.shots,
                "execution": self.execution,
            }
        )

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace.

        ``json.dumps`` with ``sort_keys`` is stable across processes and
        platforms (float repr is exact shortest-roundtrip in Python 3),
        which is what makes the derived key content-addressed rather
        than process-addressed.
        """
        return json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def key(self) -> str:
        """The content-addressed cache key (truncated sha256 hex)."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:_KEY_HEX]


@dataclass(frozen=True)
class StoreEntry:
    """One cached landscape as listed by :meth:`LandscapeStore.entries`."""

    key: str
    label: str
    payload_bytes: int
    access: int  # the payload's mtime in ns: the LRU order
    created: float
    spec_payload: Mapping[str, Any]
    path: Path


class LandscapeStore:
    """Size-bounded, content-addressed cache of generated landscapes.

    Args:
        root: directory holding the payloads and manifests (created on
            first use, parents included).
        max_bytes: LRU byte budget over the ``.npz`` payloads; ``None``
            means unbounded.

    The instance counts :attr:`hits` and :attr:`misses` across
    :meth:`get_or_compute` calls so callers (benchmarks, the CLI) can
    report cache effectiveness.

    Example — the second identical request is a file load, not a
    recompute::

        >>> import tempfile
        >>> from repro.ansatz import QaoaAnsatz
        >>> from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
        >>> from repro.problems import random_3_regular_maxcut
        >>> from repro.service import LandscapeStore
        >>> ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
        >>> root = tempfile.mkdtemp()
        >>> store = LandscapeStore(root)
        >>> generator = LandscapeGenerator(
        ...     cost_function(ansatz), qaoa_grid(p=1, resolution=(4, 8)), store=store
        ... )
        >>> first = generator.grid_search()    # miss: computes + persists
        >>> second = generator.grid_search()   # hit: loads the artifact
        >>> (store.hits, store.misses)
        (1, 1)
        >>> bool((first.values == second.values).all())
        True
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0

    # -- key/path plumbing -------------------------------------------------

    def _payload_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def _manifest_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @staticmethod
    def _resolve_key(spec_or_key: LandscapeSpec | str) -> str:
        if isinstance(spec_or_key, LandscapeSpec):
            return spec_or_key.key()
        if not is_store_key(spec_or_key):
            raise ValueError(
                f"not a store key: {spec_or_key!r} (expected {_KEY_HEX} "
                "lowercase hex characters)"
            )
        return spec_or_key

    def _read_manifest(self, path: Path) -> dict[str, Any] | None:
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _write_atomic(self, path: Path, data: bytes) -> None:
        """Write through a same-suffix temp file + ``os.replace``.

        Readers race writers in a shared store; rename is atomic on
        POSIX, so they see either the old or the new artifact, never a
        truncated one.  The temp name carries ``.tmp-`` so
        :meth:`entries` skips an in-flight manifest.
        """
        temp = path.with_name(f"{path.stem}.tmp-{os.getpid()}{path.suffix}")
        try:
            temp.write_bytes(data)
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)

    @staticmethod
    def _stamp(payload_path: Path) -> bool:
        """Set the payload's mtime to now, or ``False`` if it is gone (a
        write's own mtime is tick-coarse and would tie back-to-back puts)."""
        now = time.time_ns()
        try:
            os.utime(payload_path, ns=(now, now))
        except FileNotFoundError:
            return False
        return True

    # -- core operations ---------------------------------------------------

    def contains(self, spec_or_key: LandscapeSpec | str) -> bool:
        """Whether both payload and manifest exist for the key."""
        key = self._resolve_key(spec_or_key)
        return self._payload_path(key).exists() and self._manifest_path(key).exists()

    def get(self, spec_or_key: LandscapeSpec | str) -> Landscape | None:
        """Load a cached landscape (stamping its payload), or ``None``.

        Any read failure — a concurrent writer or eviction racing this
        load, a damaged payload — degrades to a cache miss rather than
        an exception, so the caller simply recomputes.
        """
        key = self._resolve_key(spec_or_key)
        if not self.contains(key):
            return None
        if self._read_manifest(self._manifest_path(key)) is None:
            return None
        try:
            landscape = Landscape.from_bytes(self._payload_path(key).read_bytes())
        except Exception:
            return None
        if not self._stamp(self._payload_path(key)):
            return None  # invalidated or evicted since the load
        return landscape

    def put(self, spec: LandscapeSpec, landscape: Landscape) -> str:
        """Cache a landscape under its spec's key; returns the key.

        The payload file holds :meth:`Landscape.to_bytes` exactly.
        Payload and manifest are written atomically (temp + rename), so
        concurrent readers never observe a truncated artifact.  Evicts
        least-recently-used entries afterwards if the store exceeds
        ``max_bytes`` (the entry just written is exempt).
        """
        key = spec.key()
        payload_path = self._payload_path(key)
        self._write_atomic(payload_path, landscape.to_bytes())
        self._stamp(payload_path)
        manifest = {
            "key": key,
            "spec": spec.payload(),
            "label": landscape.label,
            "circuit_executions": int(landscape.circuit_executions),
            "created": time.time(),
        }
        self._write_atomic(
            self._manifest_path(key), json.dumps(manifest, indent=1).encode()
        )
        self._evict(exempt=key)
        return key

    def get_or_compute(
        self, spec: LandscapeSpec, compute: Callable[[], Landscape]
    ) -> Landscape:
        """The service path: return the cached landscape or compute+cache.

        ``compute`` is only invoked on a miss; its result is persisted
        before being returned, so the next identical spec is a pure
        file load.
        """
        cached = self.get(spec)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        landscape = compute()
        self.put(spec, landscape)
        return landscape

    # -- maintenance -------------------------------------------------------

    def invalidate(self, spec_or_key: LandscapeSpec | str) -> bool:
        """Drop one entry; returns whether anything was removed."""
        key = self._resolve_key(spec_or_key)
        removed = False
        for path in (self._payload_path(key), self._manifest_path(key)):
            if path.exists():
                path.unlink()
                removed = True
        return removed

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        keys = [entry.key for entry in self.entries()]
        for key in keys:
            self.invalidate(key)
        return len(keys)

    def entries(self) -> list[StoreEntry]:
        """All cached entries, least recently used first."""
        out = []
        for manifest_path in sorted(self.root.glob("*.json")):
            if ".tmp-" in manifest_path.name:
                continue  # an in-flight write
            manifest = self._read_manifest(manifest_path)
            key = manifest.get("key") if isinstance(manifest, dict) else None
            if not is_store_key(key):
                continue
            payload_path = self._payload_path(key)
            try:
                payload = payload_path.stat()
            except FileNotFoundError:
                continue
            out.append(
                StoreEntry(
                    key=key,
                    label=str(manifest.get("label", "")),
                    payload_bytes=payload.st_size,
                    access=payload.st_mtime_ns,
                    created=float(manifest.get("created", 0.0)),
                    spec_payload=manifest.get("spec", {}),
                    path=payload_path,
                )
            )
        out.sort(key=lambda entry: entry.access)
        return out

    def total_bytes(self) -> int:
        """Total payload bytes currently cached."""
        return sum(entry.payload_bytes for entry in self.entries())

    def stats(self) -> dict[str, Any]:
        """A JSON-able summary of the store (for ``cache stats`` / the
        daemon's ``stats`` op): root, entry count, payload bytes, byte
        budget, and this instance's hit/miss counters."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "payload_bytes": sum(entry.payload_bytes for entry in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def _evict(self, exempt: str) -> None:
        if self.max_bytes is None:
            return
        entries = self.entries()
        total = sum(entry.payload_bytes for entry in entries)
        for entry in entries:  # least recently used first
            if total <= self.max_bytes:
                break
            if entry.key == exempt:
                continue
            self.invalidate(entry.key)
            total -= entry.payload_bytes


class TenantStores:
    """Per-tenant store namespaces over one cache root.

    The daemon's multi-tenant front (wire protocol v2 + token auth)
    routes every tenant to its **own** :class:`LandscapeStore` rooted at
    ``<root>/tenants/<tenant>/``, while the legacy/default tenant
    (:data:`~repro.service.protocol.DEFAULT_TENANT`, i.e. unauthenticated
    Unix-socket traffic) keeps using the daemon's original store at the
    cache root itself — existing on-disk caches keep working unchanged.

    Isolation and sharing rules:

    - **raw keys never cross namespaces**: ``get`` / ``invalidate`` /
      ``entries`` operate on the named tenant's store only, and a raw
      key must pass :func:`is_store_key`, so tenant A cannot read or
      drop tenant B's entries by key (``"../bob/<key>"`` is refused);
    - **byte quotas are per tenant**: each namespace store carries its
      own ``max_bytes`` (the credential's ``quota_bytes``, else the
      daemon-wide default quota), so one tenant filling its budget
      evicts only its own entries;
    - **exact specs read through across namespaces**
      (:meth:`read_through`): the content-addressed key means an
      identical exact spec identifies byte-identical content, so a
      landscape any tenant already computed can be copied into the
      requester's namespace instead of recomputed.  This never leaks:
      the requester supplied the full spec, i.e. already knows exactly
      what the values describe — only raw-key access is namespaced.
      Shot-noise specs are excluded to keep the sharing rule aligned
      with the daemon's sparse read-through policy (exact content only).
    """

    def __init__(
        self,
        default_store: LandscapeStore | None = None,
        quotas: Mapping[str, int | None] | None = None,
        default_quota: int | None = None,
    ):
        self.root = None if default_store is None else default_store.root / "tenants"
        self.default_store = default_store
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self._stores: dict[str, LandscapeStore] = {}

    def store_for(self, tenant: str) -> LandscapeStore | None:
        """The tenant's namespace store (created lazily), or ``None``
        when the daemon runs without a cache."""
        if tenant == DEFAULT_TENANT:
            return self.default_store
        if self.root is None:
            return None
        if tenant not in self._stores:
            self._stores[tenant] = LandscapeStore(
                self.root / tenant,
                max_bytes=self.quotas.get(tenant, self.default_quota),
            )
        return self._stores[tenant]

    def tenants(self) -> list[str]:
        """Every namespace that currently exists (instantiated this
        process or persisted on disk), default tenant first."""
        names = []
        if self.default_store is not None:
            names.append(DEFAULT_TENANT)
        on_disk = set(self._stores)
        if self.root is not None and self.root.exists():
            on_disk.update(
                path.name for path in self.root.iterdir() if path.is_dir()
            )
        names.extend(sorted(on_disk - {DEFAULT_TENANT}))
        return names

    def read_through(
        self, spec: LandscapeSpec, tenant: str
    ) -> tuple[Landscape | None, str | None]:
        """An identical **exact** spec cached by any other tenant.

        Returns ``(landscape, owner_tenant)`` on a cross-namespace hit,
        ``(None, None)`` otherwise.  Shot-noise specs never read
        through (see the class docstring); the caller is responsible
        for copying the hit into the requesting tenant's own namespace
        (so its quota accounts for it) and for holding the store lock.
        """
        if spec.shots is not None:
            return None, None
        for other in self.tenants():
            if other == tenant:
                continue
            store = self.store_for(other)
            if store is None:
                continue
            landscape = store.get(spec)
            if landscape is not None:
                return landscape, other
        return None, None

    def stats(self) -> dict[str, Any]:
        """Per-tenant store summaries (quota included) keyed by tenant."""
        out = {}
        for tenant in self.tenants():
            store = self.store_for(tenant)
            if store is not None:
                out[tenant] = store.stats()
        return out
