"""Landscape daemon: one warm pool + one cache, many clients.

``oscar-repro serve`` runs a long-lived daemon that serves from its
process's warm worker pool and a content-addressed landscape store
behind a Unix socket.  Clients — the ``LandscapeClient`` library, or any
``LandscapeGenerator(daemon=...)`` / CLI ``--daemon`` call — then share
that pool and cache instead of each forking a pool of its own and
keeping a private store.  Concurrent identical requests are *single-flighted*:
the daemon computes once and every waiting client gets the result.

With ``tcp=`` and a ``tokens_file`` the same daemon also serves the
network: an asyncio TCP listener speaking the pickle-free v2 protocol,
bearer-token auth, and one store *namespace per tenant* — while exact
identical requests still compute only once across tenants.

This script demonstrates the full loop in one process:

1. start a daemon on a background thread (as tests and notebooks do;
   production runs ``oscar-repro serve`` in its own process),
2. let two concurrent clients request the *same* landscape — watch the
   dedup counter: one computation, two answers,
3. ask again — a warm cache hit,
4. show stats, then shut the daemon down over the socket,
5. start a second daemon with a TCP front and two tenants — same
   landscape requested by both costs one computation, each tenant's
   copy lands in its own namespace, and an unauthenticated caller gets
   a structured ``auth`` refusal.

Run with:  python examples/landscape_daemon.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.ansatz import QaoaAnsatz
from repro.landscape import cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut
from repro.service import DaemonError, LandscapeClient, LandscapeDaemon


def two_tenants_over_tcp() -> None:
    """The network front: token auth, per-tenant stores, shared compute."""
    ansatz = QaoaAnsatz(random_3_regular_maxcut(8, seed=3), p=1)
    grid = qaoa_grid(p=1, resolution=(20, 40))
    function = cost_function(ansatz)

    with tempfile.TemporaryDirectory() as root:
        tokens = Path(root) / "tokens.json"
        tokens.write_text(
            json.dumps({"alice": "tok-alice", "bob": "tok-bob"})
        )
        daemon = LandscapeDaemon(
            Path(root) / "daemon.sock",
            workers=1,
            cache_dir=Path(root) / "cache",
            tcp=("127.0.0.1", 0),  # ephemeral port; production picks one
            tokens_file=tokens,
        )
        daemon.start()
        host, port = daemon.tcp_address
        target = f"tcp://{host}:{port}"
        print(f"daemon up on {target} (tokens: alice, bob)")

        alice = LandscapeClient(target, token="tok-alice", fallback=False)
        bob = LandscapeClient(target, token="tok-bob", fallback=False)
        first = alice.get_or_compute(function, grid, label="shared")
        second = bob.get_or_compute(function, grid, label="shared")
        assert np.array_equal(first.values, second.values)
        counters = alice.stats()["counters"]
        print(
            f"  alice then bob, same spec: computed={counters['computed']} "
            f"(bob was served read-through into his own namespace)"
        )
        assert counters["computed"] == 1

        # Each tenant's copy lives in its own store namespace.
        tenants = alice.stats()["tenants"]
        for name in ("alice", "bob"):
            entries = tenants[name]["store"]["entries"]
            print(f"  tenant {name}: {entries} cached entr(y/ies)")
            assert entries == 1

        # No token, no service: the refusal is structured, not a crash.
        try:
            LandscapeClient(target, fallback=False).get_or_compute(
                function, grid, label="shared"
            )
        except DaemonError as error:
            print(f"  unauthenticated caller: code={error.code!r}")
            assert error.code == "auth"
        else:  # pragma: no cover - the daemon must refuse
            raise AssertionError("unauthenticated request was served")

        alice.shutdown()
        daemon.close()
        print("tcp daemon stopped")


def main() -> None:
    """Serve, deduplicate two concurrent clients, hit the warm cache."""
    ansatz = QaoaAnsatz(random_3_regular_maxcut(10, seed=0), p=1)
    grid = qaoa_grid(p=1)  # Table 1: 50 x 100 = 5000 points
    function = cost_function(ansatz)

    with tempfile.TemporaryDirectory() as root:
        daemon = LandscapeDaemon(
            Path(root) / "daemon.sock",
            workers=1,
            cache_dir=Path(root) / "cache",
        )
        daemon.start()
        print(f"daemon up on {daemon.socket_path}")

        # Two clients, same request, at the same time: the daemon
        # computes once and both get the landscape.
        results: dict[str, object] = {}

        def request(name: str) -> None:
            client = LandscapeClient(daemon.socket_path)
            landscape = client.get_or_compute(function, grid, label="table1")
            results[name] = (landscape, client.last_served_by)

        start = time.perf_counter()
        threads = [
            threading.Thread(target=request, args=(name,))
            for name in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        for name, (landscape, served_by) in sorted(results.items()):
            print(f"  {name}: {landscape.values.shape} via {served_by}")
        alice, bob = results["alice"][0], results["bob"][0]
        assert np.array_equal(alice.values, bob.values)
        print(f"two concurrent clients served in {elapsed:.3f}s total")

        # A third request is a warm cache hit — a file load + round trip.
        client = LandscapeClient(daemon.socket_path)
        start = time.perf_counter()
        client.get_or_compute(function, grid, label="table1")
        print(
            f"warm repeat: {time.perf_counter() - start:.4f}s "
            f"({client.last_served_by})"
        )

        stats = client.stats()
        counters = stats["counters"]
        print(
            f"daemon stats: computed={counters['computed']} "
            f"deduped={counters['deduped']} hits={counters['hits']} "
            f"({stats['store']['entries']} cached entr(y/ies), "
            f"{stats['store']['payload_bytes']} bytes)"
        )
        assert counters["computed"] == 1  # the whole point

        client.shutdown()
        daemon.close()
        print("daemon stopped")

    two_tenants_over_tcp()


if __name__ == "__main__":
    main()
