"""Store read-through parity for the daemon's sparse path.

The sparse `compute_indices` op takes a cost function and a grid, so it
is pinned here rather than in the engine matrix — on both listeners.
Its **read-through fast path**: an exact sparse request answered from
a cached dense landscape must return the values an in-process
evaluation of the subset would (to the harness's
``ATOL`` — dense-grid and subset evaluations chunk differently, which
legally reorders float operations) — the cached landscape is the same
deterministic function, just precomputed.
(Shot-noise requests must NOT read through — a cached noisy landscape
is a different stochastic draw than evaluating the subset — which
`tests/test_service_daemon.py` pins from the counter side.)
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import ATOL
from repro.ansatz import QaoaAnsatz
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.problems import random_3_regular_maxcut
from repro.service.client import LandscapeClient
from repro.service.daemon import LandscapeDaemon

pytestmark = pytest.mark.equivalence


def test_readthrough_matches_local_evaluation(tmp_path):
    ansatz = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)
    grid = qaoa_grid(p=1, resolution=(10, 20))
    function = cost_function(ansatz)
    with LandscapeDaemon(
        tmp_path / "daemon.sock", workers=1, cache_dir=tmp_path / "cache"
    ) as daemon:
        client = LandscapeClient(daemon.socket_path, fallback=False)
        generator = LandscapeGenerator(function, grid, daemon=client)
        generator.grid_search()  # prime the dense cache

        rng = np.random.default_rng(11)
        flat_indices = rng.choice(grid.size, size=37, replace=False)
        served = generator.evaluate_indices(flat_indices)
        assert client.last_served_by == "daemon-readthrough"

        local = LandscapeGenerator(function, grid).local_evaluate_indices(
            flat_indices
        )
        np.testing.assert_allclose(served, local, rtol=0.0, atol=ATOL)

        # The fast path really answered from the store, not the pool.
        counters = client.stats()["counters"]
        assert counters["sparse_hits"] == 1
        assert counters["sparse_computed"] == 0


def test_tcp_readthrough_matches_local_evaluation(tmp_path):
    """The same read-through contract over the authenticated TCP front.

    A dense landscape primed by one tenant answers that tenant's exact
    sparse request from the store (no pool work), and the served values
    match an in-process evaluation of the subset — proving the v2 wire
    codecs (spec registry in, typed arrays out) preserve the service
    path's numerics end to end.
    """
    import json

    ansatz = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)
    grid = qaoa_grid(p=1, resolution=(10, 20))
    function = cost_function(ansatz)
    tokens = tmp_path / "tokens.json"
    tokens.write_text(json.dumps({"alpha": "alpha-token"}))
    with LandscapeDaemon(
        tmp_path / "daemon.sock",
        workers=1,
        cache_dir=tmp_path / "cache",
        tcp=("127.0.0.1", 0),
        tokens_file=tokens,
    ) as daemon:
        host, port = daemon.tcp_address
        client = LandscapeClient(
            f"tcp://{host}:{port}", fallback=False, token="alpha-token"
        )
        generator = LandscapeGenerator(function, grid, daemon=client)
        generator.grid_search()  # prime the dense cache (tenant "alpha")

        rng = np.random.default_rng(11)
        flat_indices = rng.choice(grid.size, size=37, replace=False)
        served = generator.evaluate_indices(flat_indices)
        assert client.last_served_by == "daemon-readthrough"

        local = LandscapeGenerator(function, grid).local_evaluate_indices(
            flat_indices
        )
        np.testing.assert_allclose(served, local, rtol=0.0, atol=ATOL)

        counters = client.stats()["counters"]
        assert counters["sparse_hits"] == 1
        assert counters["sparse_computed"] == 0


def test_sparse_compute_matches_local_without_store(tmp_path):
    """No store: the sparse op computes, and still matches exactly."""
    ansatz = QaoaAnsatz(random_3_regular_maxcut(6, seed=1), p=1)
    grid = qaoa_grid(p=1, resolution=(8, 16))
    function = cost_function(ansatz)
    with LandscapeDaemon(tmp_path / "daemon.sock", workers=1) as daemon:
        client = LandscapeClient(daemon.socket_path, fallback=False)
        generator = LandscapeGenerator(function, grid, daemon=client)
        flat_indices = np.array([0, 5, 2, grid.size - 1, 64])
        served = generator.evaluate_indices(flat_indices)
        assert client.last_served_by == "daemon-computed"
        local = LandscapeGenerator(function, grid).local_evaluate_indices(
            flat_indices
        )
        np.testing.assert_allclose(served, local, rtol=0.0, atol=ATOL)
