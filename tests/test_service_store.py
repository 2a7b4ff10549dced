"""The content-addressed landscape store: keys, caching, LRU eviction."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz
from repro.landscape import (
    GridAxis,
    Landscape,
    LandscapeGenerator,
    ParameterGrid,
    cost_function,
    qaoa_grid,
)
from repro.mitigation import ZneConfig, zne_cost_function
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.problems.chemistry import h2_hamiltonian
from repro.quantum import NoiseModel
from repro.service import LandscapeSpec, LandscapeStore


@pytest.fixture
def qaoa():
    return QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)


@pytest.fixture
def grid():
    return qaoa_grid(p=1, resolution=(6, 10))


def _spec(qaoa, grid, **kwargs):
    return LandscapeGenerator(
        cost_function(qaoa, **kwargs.pop("function_kwargs", {})),
        grid,
        **kwargs,
    ).cache_spec()


# -- cache-key stability -------------------------------------------------------


def test_same_spec_same_key(qaoa, grid):
    """Two independently built identical requests share one key."""
    other = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)
    assert _spec(qaoa, grid).key() == _spec(other, grid).key()


def test_key_is_stable_across_processes(qaoa, grid):
    """The canonical serialization hashes identically in a fresh
    interpreter (no dependence on PYTHONHASHSEED or object identity)."""
    script = (
        "from repro.ansatz import QaoaAnsatz\n"
        "from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid\n"
        "from repro.problems import random_3_regular_maxcut\n"
        "ansatz = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)\n"
        "grid = qaoa_grid(p=1, resolution=(6, 10))\n"
        "print(LandscapeGenerator(cost_function(ansatz), grid).cache_spec().key())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    env["PYTHONHASHSEED"] = "271828"  # a hash seed the parent never uses
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == _spec(qaoa, grid).key()


def test_any_field_change_changes_key(qaoa, grid):
    """Every spec ingredient participates in the key."""
    base = _spec(qaoa, grid).key()
    variants = [
        # problem content
        _spec(QaoaAnsatz(random_3_regular_maxcut(6, seed=1), p=1), grid),
        _spec(QaoaAnsatz(sk_problem(6, seed=0), p=1), grid),
        # ansatz structure
        _spec(QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=2), grid),
        # grid resolution and bounds
        _spec(qaoa, qaoa_grid(p=1, resolution=(6, 11))),
        _spec(qaoa, ParameterGrid([GridAxis("beta_0", -1.0, 1.0, 6), grid.axes[1]])),
        # noise model
        _spec(qaoa, grid, function_kwargs={"noise": NoiseModel(p1=0.001)}),
        # shots (+ required seed) and the seed itself
        _spec(qaoa, grid, function_kwargs={"shots": 32}, seed=0),
        _spec(qaoa, grid, function_kwargs={"shots": 32}, seed=1),
        _spec(qaoa, grid, function_kwargs={"shots": 64}, seed=0),
    ]
    keys = [spec.key() for spec in variants]
    assert base not in keys
    assert len(set(keys)) == len(keys)


def test_mitigation_config_changes_key(qaoa, grid):
    noise = NoiseModel(p1=0.003, p2=0.008)
    keys = set()
    for config in (
        None,  # unmitigated
        ZneConfig((1.0, 2.0, 3.0), "richardson"),
        ZneConfig((1.0, 3.0), "richardson"),
        ZneConfig((1.0, 2.0, 3.0), "linear"),
    ):
        function = (
            cost_function(qaoa, noise=noise)
            if config is None
            else zne_cost_function(qaoa, noise, config)
        )
        keys.add(LandscapeGenerator(function, grid).cache_spec().key())
    assert len(keys) == 4


def test_seeded_shot_noise_key_is_pinned():
    """A seeded shot-noise key records the rng plan ``(seed, first
    shard size)``, derived from the grid size.  Pinning one key (and its
    worker-count independence) catches a change to the derived layout
    that would silently rekey every cached shot-noise landscape."""
    function = cost_function(
        QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1), shots=32
    )
    grid = qaoa_grid(p=1, resolution=(7, 11))
    for workers in (1, 2):
        spec = LandscapeGenerator(
            function, grid, workers=workers, seed=5
        ).cache_spec()
        assert spec.key() == "0e216e2e7d4f1855b2a3394a14001f0d"
        assert spec.execution == {"seed": 5, "shard_points": 5}


def test_exact_key_independent_of_execution_plan(qaoa, grid):
    """Exact landscapes are execution-plan independent: the worker
    count must not fragment the cache."""
    base = LandscapeGenerator(cost_function(qaoa), grid).cache_spec().key()
    sharded = (
        LandscapeGenerator(cost_function(qaoa), grid, workers=4)
        .cache_spec()
        .key()
    )
    assert base == sharded


def test_all_ansatzes_describe_themselves(grid):
    """Every shipped ansatz yields a JSON-able canonical payload."""
    h2 = h2_hamiltonian()
    for ansatz in (
        QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1),
        TwoLocalAnsatz(sk_problem(4, seed=2).to_pauli_sum(), reps=1),
        TwoLocalAnsatz(h2, reps=1),
        UccsdAnsatz(h2, num_parameters=3),
    ):
        payload = ansatz.cache_spec()
        json.dumps(payload)  # must serialize
        assert payload["type"] in ("qaoa", "twolocal", "uccsd")


def test_custom_ansatz_without_spec_is_rejected(grid):
    """Cost functions that cannot describe their content must fail
    loudly instead of producing a colliding key."""

    def opaque(point):
        return 0.0

    with pytest.raises(TypeError):
        LandscapeGenerator(opaque, grid).cache_spec()


def test_shot_noise_caching_requires_seed(qaoa, grid, tmp_path):
    generator = LandscapeGenerator(
        cost_function(qaoa, shots=16, rng=np.random.default_rng(0)),
        grid,
        store=LandscapeStore(tmp_path),
    )
    with pytest.raises(ValueError, match="seed"):
        generator.grid_search()


# -- get_or_compute / invalidation --------------------------------------------


def test_get_or_compute_hits_without_recompute(qaoa, grid, tmp_path):
    store = LandscapeStore(tmp_path)
    calls = {"n": 0}
    function = cost_function(qaoa)

    class Counting:
        """Wraps the cost function to count dense evaluations."""

        def __init__(self, inner):
            self.inner = inner

        def __call__(self, point):
            calls["n"] += 1
            return self.inner(point)

        def many(self, points):
            calls["n"] += len(points)
            return self.inner.many(points)

        def cache_spec(self):
            return self.inner.cache_spec()

        @property
        def num_qubits(self):
            return self.inner.num_qubits

        @property
        def shots(self):
            return self.inner.shots

    counting = Counting(function)
    gen = LandscapeGenerator(counting, grid, store=store)
    first = gen.grid_search(label="truth")
    assert calls["n"] == grid.size
    assert store.misses == 1 and store.hits == 0
    second = gen.grid_search(label="truth")
    assert calls["n"] == grid.size  # no recompute on the hit
    assert store.misses == 1 and store.hits == 1
    np.testing.assert_array_equal(first.values, second.values)
    assert second.label == "truth"
    assert second.circuit_executions == grid.size


def test_landscapes_round_trip_through_store(qaoa, grid, tmp_path):
    """A cache hit preserves values bit-for-bit plus all metadata."""
    store = LandscapeStore(tmp_path)
    gen = LandscapeGenerator(cost_function(qaoa), grid, store=store)
    computed = gen.grid_search(label="served")
    served = gen.grid_search(label="served")
    np.testing.assert_array_equal(computed.values, served.values)
    assert served.grid.shape == grid.shape
    assert [axis.name for axis in served.grid.axes] == [
        axis.name for axis in grid.axes
    ]


def test_invalidate_and_clear(qaoa, grid, tmp_path):
    store = LandscapeStore(tmp_path)
    gen = LandscapeGenerator(cost_function(qaoa), grid, store=store)
    gen.grid_search()
    spec = gen.cache_spec()
    assert store.contains(spec)
    assert store.invalidate(spec)
    assert not store.contains(spec)
    assert not store.invalidate(spec)  # already gone
    gen.grid_search()
    assert store.clear() == 1
    assert store.entries() == []


# -- LRU eviction --------------------------------------------------------------


def _tiny_landscape(seed: int) -> tuple[LandscapeSpec, Landscape]:
    grid = ParameterGrid(
        [GridAxis("a", 0.0, 1.0, 4), GridAxis("b", 0.0, 1.0, 4)]
    )
    values = np.random.default_rng(seed).normal(size=grid.shape)
    spec = LandscapeSpec(
        ansatz={"type": "synthetic", "seed": seed},
        grid=(
            {"name": "a", "low": 0.0, "high": 1.0, "num_points": 4},
            {"name": "b", "low": 0.0, "high": 1.0, "num_points": 4},
        ),
    )
    return spec, Landscape(grid, values, label=f"tiny-{seed}")


def test_lru_eviction_is_size_bounded_and_recency_aware(tmp_path):
    store = LandscapeStore(tmp_path)
    specs = []
    sizes = []
    for seed in range(3):
        spec, landscape = _tiny_landscape(seed)
        store.put(spec, landscape)
        specs.append(spec)
        sizes.append(store.entries()[-1].payload_bytes)
    # Rebound the budget to fit ~3 entries, touch entry 0 so entry 1
    # becomes the least recently used, then insert a fourth.
    store.max_bytes = sum(sizes) + sizes[0] // 2
    assert store.get(specs[0]) is not None
    spec3, landscape3 = _tiny_landscape(3)
    store.put(spec3, landscape3)
    keys = {entry.key for entry in store.entries()}
    assert specs[1].key() not in keys, "LRU entry should be evicted"
    assert specs[0].key() in keys, "recently read entry must survive"
    assert spec3.key() in keys, "the entry just written is exempt"
    assert store.total_bytes() <= store.max_bytes


def test_oversized_entry_still_caches(tmp_path):
    """A single landscape larger than the budget is written anyway
    (the just-written entry is exempt from eviction)."""
    store = LandscapeStore(tmp_path, max_bytes=1)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    assert store.contains(spec)


def test_entries_listing_orders_by_recency(tmp_path):
    store = LandscapeStore(tmp_path)
    pairs = [_tiny_landscape(seed) for seed in range(3)]
    for spec, landscape in pairs:
        store.put(spec, landscape)
    store.get(pairs[0][0])  # most recent
    ordered = [entry.key for entry in store.entries()]
    assert ordered[-1] == pairs[0][0].key()
    assert ordered[0] == pairs[1][0].key()


# -- recency lives in the payload's mtime --------------------------------------


def test_hit_writes_no_file(tmp_path):
    """A hit only stamps the payload's mtime: the manifest keeps its
    bytes and mtime, and no access-counter file appears."""
    store = LandscapeStore(tmp_path)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    manifest = tmp_path / f"{spec.key()}.json"
    before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)
    assert store.get(spec) is not None
    assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"{spec.key()}.json",
        f"{spec.key()}.npz",
    ]


def test_hit_racing_an_invalidation_is_a_clean_miss(tmp_path, monkeypatch):
    """An entry another process drops between the load and the stamp is
    a miss, and the stamp recreates nothing (no orphan manifest)."""
    store = LandscapeStore(tmp_path)
    other = LandscapeStore(tmp_path)
    spec, landscape = _tiny_landscape(0)
    store.put(spec, landscape)
    decode = Landscape.from_bytes

    def decode_then_invalidate(blob):
        loaded = decode(blob)
        assert other.invalidate(spec)
        return loaded

    monkeypatch.setattr(Landscape, "from_bytes", staticmethod(decode_then_invalidate))
    assert store.get(spec) is None
    assert list(tmp_path.iterdir()) == []


def test_read_in_another_process_counts_for_eviction(tmp_path):
    """Recency is shared through the file system: an entry a fresh
    interpreter read survives this process's next eviction."""
    store = LandscapeStore(tmp_path)
    pairs = [_tiny_landscape(seed) for seed in range(3)]
    for spec, landscape in pairs:
        store.put(spec, landscape)
    sizes = [entry.payload_bytes for entry in store.entries()]
    script = (
        "import sys\n"
        "from repro.service import LandscapeStore\n"
        "assert LandscapeStore(sys.argv[1]).get(sys.argv[2]) is not None\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), pairs[0][0].key()],
        env=env,
        check=True,
    )
    store.max_bytes = sum(sizes) + sizes[0] // 2  # room for three entries
    spec3, landscape3 = _tiny_landscape(3)
    store.put(spec3, landscape3)
    keys = {entry.key for entry in store.entries()}
    assert pairs[0][0].key() in keys, "the other process's read must count"
    assert pairs[1][0].key() not in keys, "LRU entry should be evicted"


def test_store_written_with_access_counter_needs_no_migration(tmp_path):
    """A root from before recency moved to the payload mtime — manifests
    carrying ``access``/``payload_bytes`` next to ``_counter.json`` and
    ``_counter.lock`` — lists, hits and evicts by the payload files."""
    store = LandscapeStore(tmp_path)
    pairs = [_tiny_landscape(seed) for seed in range(3)]
    for position, (spec, landscape) in enumerate(pairs):
        store.put(spec, landscape)
        manifest_path = tmp_path / f"{spec.key()}.json"
        manifest = json.loads(manifest_path.read_text())
        # Stale on purpose: the old fields are ignored, the files rule.
        manifest.update(access=len(pairs) - position, payload_bytes=1)
        manifest_path.write_text(json.dumps(manifest, indent=1))
    (tmp_path / "_counter.json").write_text(json.dumps({"next": len(pairs) + 1}))
    (tmp_path / "_counter.lock").touch()

    entries = store.entries()
    assert [entry.key for entry in entries] == [spec.key() for spec, _ in pairs]
    sizes = [entry.path.stat().st_size for entry in entries]
    assert [entry.payload_bytes for entry in entries] == sizes
    assert store.get(pairs[0][0]) is not None
    store.max_bytes = sum(sizes) + sizes[0] // 2  # room for three entries
    spec3, landscape3 = _tiny_landscape(3)
    store.put(spec3, landscape3)
    assert [entry.key for entry in store.entries()] == [
        pairs[2][0].key(),
        pairs[0][0].key(),
        spec3.key(),
    ]
    assert store.clear() == 3


# -- multi-tenant namespaces (TenantStores) -----------------------------------


def _tenant_stores(tmp_path, **kwargs):
    from repro.service.store import TenantStores

    default = LandscapeStore(tmp_path / "root")
    return TenantStores(default_store=default, **kwargs)


def test_tenant_namespaces_isolate_raw_keys(tmp_path):
    """Tenant A's keys are invisible to tenant B's get/invalidate/entries."""
    tenants = _tenant_stores(tmp_path)
    spec, landscape = _tiny_landscape(0)
    tenants.store_for("alice").put(spec, landscape)

    bob = tenants.store_for("bob")
    assert bob.get(spec.key()) is None
    assert bob.invalidate(spec.key()) is False
    assert [entry.key for entry in bob.entries()] == []
    # ... and the entry is still exactly where alice left it.
    assert tenants.store_for("alice").get(spec.key()) is not None


def test_default_tenant_is_the_daemon_store(tmp_path):
    """The default tenant aliases the daemon's original store, so
    pre-existing on-disk caches keep working unchanged."""
    tenants = _tenant_stores(tmp_path)
    assert tenants.store_for("local") is tenants.default_store
    spec, landscape = _tiny_landscape(1)
    tenants.store_for("local").put(spec, landscape)
    assert tenants.default_store.contains(spec)


def test_tenant_quota_evicts_only_that_tenant(tmp_path):
    """Filling one tenant's byte budget LRU-evicts its own entries and
    nobody else's."""
    tenants = _tenant_stores(tmp_path)
    spec_b, landscape_b = _tiny_landscape(9)
    tenants.store_for("bob").put(spec_b, landscape_b)

    alice = tenants.store_for("alice")
    specs = []
    sizes = []
    for seed in range(3):
        spec, landscape = _tiny_landscape(seed)
        alice.put(spec, landscape)
        specs.append(spec)
        sizes.append(alice.entries()[-1].payload_bytes)
    alice.max_bytes = sum(sizes) - 1  # force one eviction on next put
    spec3, landscape3 = _tiny_landscape(3)
    alice.put(spec3, landscape3)

    keys = {entry.key for entry in alice.entries()}
    assert specs[0].key() not in keys, "alice's LRU entry should go"
    assert spec3.key() in keys
    # bob's namespace is untouched by alice's quota pressure.
    assert tenants.store_for("bob").contains(spec_b)


def test_quota_comes_from_credentials_then_default(tmp_path):
    tenants = _tenant_stores(
        tmp_path, quotas={"alice": 12345}, default_quota=99
    )
    assert tenants.store_for("alice").max_bytes == 12345
    assert tenants.store_for("bob").max_bytes == 99
    assert tenants.store_for("local").max_bytes is None


def test_exact_specs_read_through_across_tenants(tmp_path):
    """An identical exact spec any tenant already holds is shared;
    shot-noise specs never are (different stochastic draw)."""
    tenants = _tenant_stores(tmp_path)
    spec, landscape = _tiny_landscape(4)
    tenants.store_for("bob").put(spec, landscape)

    found, owner = tenants.read_through(spec, "alice")
    assert owner == "bob"
    np.testing.assert_array_equal(found.values, landscape.values)

    noisy = LandscapeSpec(
        ansatz={"type": "synthetic", "seed": 4},
        grid=spec.grid,
        shots=128,
        execution={"seed": 7, "shard_points": 2},
    )
    tenants.store_for("bob").put(noisy, landscape)
    assert tenants.read_through(noisy, "alice") == (None, None)
    # ... and a tenant never reads through to its own entry.
    assert tenants.read_through(spec, "bob") == (None, None)


def test_cross_tenant_dedupe_never_leaks_to_unauthenticated(tmp_path):
    """End to end: alice's compute is shared with bob (store hit, no
    recompute) but an unauthenticated TCP caller gets an auth error,
    never values."""
    import json as _json

    from repro.service.client import DaemonError, LandscapeClient
    from repro.service.daemon import LandscapeDaemon

    tokens = tmp_path / "tokens.json"
    tokens.write_text(_json.dumps({"alice": "tok-a", "bob": "tok-b"}))
    ansatz = QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1)
    grid = qaoa_grid(p=1, resolution=(4, 4))
    with LandscapeDaemon(
        tmp_path / "daemon.sock",
        workers=1,
        cache_dir=tmp_path / "cache",
        tcp=("127.0.0.1", 0),
        tokens_file=tokens,
    ) as daemon:
        host, port = daemon.tcp_address
        target = f"tcp://{host}:{port}"
        alice = LandscapeClient(target, fallback=False, token="tok-a")
        first = alice.get_or_compute(cost_function(ansatz), grid)
        assert alice.last_served_by == "daemon-computed"

        bob = LandscapeClient(target, fallback=False, token="tok-b")
        shared = bob.get_or_compute(cost_function(ansatz), grid)
        assert bob.last_served_by == "daemon-hit", "dedupe across tenants"
        np.testing.assert_array_equal(shared.values, first.values)
        counters = bob.stats()["counters"]
        assert counters["computed"] == 1, "one compute serves both tenants"

        anonymous = LandscapeClient(target, fallback=False)
        with pytest.raises(DaemonError) as denied:
            anonymous.get_or_compute(cost_function(ansatz), grid)
        assert denied.value.code == "auth"
        with pytest.raises(DaemonError) as denied:
            anonymous.get(first.label)  # raw-key probe, no token
        assert denied.value.code == "auth"
