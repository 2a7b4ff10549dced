"""Landscape service layer: sharded execution + a content-addressed store.

The library below this package is a fast single-process engine; this
package is the first step toward a system that serves repeated traffic:

- :mod:`repro.service.store` — a content-addressed on-disk cache of
  generated landscapes, keyed by a canonical :class:`LandscapeSpec`
  (ansatz/problem content, grid, noise, shots, mitigation, rng plan),
  with LRU eviction and an index listing;
- :mod:`repro.service.shards` — a :class:`ShardedExecutor` that splits
  a grid into contiguous shards and fans them out across a
  ``multiprocessing`` pool, with `SeedSequence.spawn`-style per-shard
  seeding so shot-noise results are bit-identical for any worker count.

- :mod:`repro.service.daemon` / :mod:`repro.service.client` — a
  long-running :class:`LandscapeDaemon` owning one persistent pool and
  one store behind a Unix-domain socket and, with ``tcp=`` +
  ``tokens_file=``, an authenticated TCP listener — one asyncio loop
  speaking the pickle-free v2 protocol on both — and the
  :class:`LandscapeClient` library that talks to either (Unix path or
  ``tcp://host:port`` target) with transparent in-process fallback;
- :mod:`repro.service.protocol` — the v2 wire protocol itself: the
  declarative spec registry (ansatz/function/grid/noise specs resolved
  server-side), typed array + rng-state codecs, bearer-token
  credentials and the structured :class:`ProtocolError` codes.

All of it wires into :class:`repro.landscape.generator.LandscapeGenerator`
through its ``workers=``, ``shard_points=``, ``seed=``, ``store=`` and
``daemon=`` knobs; see ``README.md`` in this directory for the store
layout and the reproducibility contract, and ``docs/architecture.md``
for the layer map.
"""

from .client import DaemonError, DaemonUnavailable, LandscapeClient
from .daemon import DEFAULT_SOCKET, LandscapeDaemon
from .pipeline import PipelineConfig, PipelineOutcome, run_pipeline
from .protocol import (
    DEFAULT_TENANT,
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    TenantCredential,
    authenticate,
    load_tokens,
)
from .shards import Shard, ShardedExecutor, plan_shards
from .store import LandscapeSpec, LandscapeStore, StoreEntry, TenantStores

__all__ = [
    "Shard",
    "ShardedExecutor",
    "plan_shards",
    "LandscapeSpec",
    "LandscapeStore",
    "StoreEntry",
    "TenantStores",
    "LandscapeDaemon",
    "LandscapeClient",
    "DaemonError",
    "DaemonUnavailable",
    "DEFAULT_SOCKET",
    "DEFAULT_TENANT",
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "ProtocolError",
    "TenantCredential",
    "authenticate",
    "load_tokens",
    "PipelineConfig",
    "PipelineOutcome",
    "run_pipeline",
]
