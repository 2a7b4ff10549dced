"""Reusable cross-engine equivalence harness.

The repo ships multiple ways to evaluate the same cost function — the
serial point-at-a-time loop over :meth:`repro.ansatz.base.Ansatz.expectation`
and the vectorized :meth:`~repro.ansatz.base.Ansatz.expectation_many`
batch path — and every future backend (threaded, GPU, remote) is
expected to join them.  This module is the single place that knows how
to prove two engines identical:

- :data:`ENGINES` maps an engine name to an evaluation function with
  the uniform signature ``(ansatz, batch, noise, shots, rng) -> values``.
  Adding a new engine is one entry here (see ``README.md``); every
  parametrized test in this directory then exercises it automatically.
- :func:`assert_engines_match` runs every registered engine against the
  reference engine with independently seeded generators and asserts
  both *value equivalence* (to machine precision) and *rng draw-order
  parity*: after a stochastic evaluation the generators of all engines
  must sit at the same stream position, which is checked by comparing
  their next draw.
- :func:`ansatz_cases` builds the three shipped ansatzes (plus a
  non-diagonal molecular Two-local) in paper-sized configurations, and
  :func:`random_uccsd`/:func:`random_twolocal`/:func:`random_qaoa`
  derive randomized instances from a seed for hypothesis-style
  property tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

import repro.ansatz.base as ansatz_base
from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz
from repro.ansatz.base import Ansatz
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.problems.chemistry import h2_hamiltonian, lih_hamiltonian
from repro.quantum import NoiseModel
from repro.utils import ensure_rng

#: Absolute tolerance for "machine precision" equivalence.  Engine
#: implementations are free to reorder float operations (butterfly vs
#: BLAS summation), so bit-identity is not required — 1e-10 on O(1)
#: cost values leaves ~5 orders of magnitude of headroom over the
#: reorder noise while catching any semantic divergence.
ATOL = 1e-10

EngineFn = Callable[..., np.ndarray]


def serial_engine(
    ansatz: Ansatz,
    batch: np.ndarray,
    noise=None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Reference engine: the point-at-a-time loop over ``expectation``.

    Accepts the same shared-or-per-row ``noise`` spec as the batch
    interface so per-row cases (batched ZNE's folded scale factors) can
    be pinned against it too.
    """
    batch = np.asarray(batch, dtype=float)
    noise_rows = (
        list(noise)
        if isinstance(noise, (list, tuple))
        else [noise] * batch.shape[0]
    )
    if shots is not None:
        rng = ensure_rng(rng)
    return np.array(
        [
            ansatz.expectation(row, noise=model, shots=shots, rng=rng)
            for row, model in zip(batch, noise_rows)
        ]
    ).reshape(batch.shape[0])


def batched_engine(
    ansatz: Ansatz,
    batch: np.ndarray,
    noise=None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The vectorized ``expectation_many`` batch engine."""
    return ansatz.expectation_many(batch, noise=noise, shots=shots, rng=rng)


def batched_density_engine(
    ansatz: Ansatz,
    batch: np.ndarray,
    noise=None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The batched path with the density engine forced into tiny chunks.

    Noisy Two-local/UCCSD rows run on
    :class:`repro.quantum.batched_density.BatchedDensityMatrix`;
    patching the density chunk size to 2 rows forces every noisy batch
    through genuine chunk splits (and, on mixed per-row noise, per-row
    Kraus stacks) instead of one whole-batch pass.  QAOA cases pass
    through their analytic contraction path untouched, pinning that the
    density engine's registration did not disturb it.
    """
    original = ansatz_base.default_density_batch_size
    ansatz_base.default_density_batch_size = lambda num_qubits: 2
    try:
        return ansatz.expectation_many(batch, noise=noise, shots=shots, rng=rng)
    finally:
        ansatz_base.default_density_batch_size = original


def sharded_engine(
    ansatz: Ansatz,
    batch: np.ndarray,
    noise=None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The sharded executor in parity mode (workers=1, tiny shards).

    Two-row shards force every batch through a genuine split + merge,
    and sequential in-process execution threads the caller's ``rng``
    through the shards in order — which must consume the stream exactly
    as the unsharded engines do (the block-draw contract).  Multiprocess
    spawn-mode seeding intentionally trades this parity for worker-count
    independence and is pinned separately in
    ``tests/test_service_shards.py``.
    """
    from repro.service.shards import ShardedExecutor

    executor = ShardedExecutor(workers=1, shard_points=2)
    return executor.run_ansatz(ansatz, batch, noise=noise, shots=shots, rng=rng)


#: Lazily-started shared daemon backing :func:`daemon_engine` (one per
#: test process; torn down atexit).
_DAEMON_RUNTIME: dict = {}


def _daemon_client():
    """The shared daemon-backed client, starting the daemon on first use.

    The daemon runs on a background thread of this process (workers=1,
    the default shard plan, which splits batches of up to 16 rows into
    one-point shards — the parity configuration of
    :func:`sharded_engine`, plus the full socket round trip).
    ``fallback=False`` so a dead daemon fails the matrix loudly instead
    of silently passing via local computation.
    """
    if "client" not in _DAEMON_RUNTIME:
        import atexit
        import json
        import tempfile
        from pathlib import Path

        from repro.service.client import LandscapeClient
        from repro.service.daemon import LandscapeDaemon

        root = Path(tempfile.mkdtemp(prefix="oscar-eqd-"))
        tokens = root / "tokens.json"
        tokens.write_text(json.dumps({"equivalence": "eq-harness-token"}))
        daemon = LandscapeDaemon(
            root / "daemon.sock",
            workers=1,
            tcp=("127.0.0.1", 0),
            tokens_file=tokens,
        )
        daemon.start()
        atexit.register(daemon.close)
        host, port = daemon.tcp_address
        _DAEMON_RUNTIME["daemon"] = daemon
        _DAEMON_RUNTIME["client"] = LandscapeClient(
            daemon.socket_path, fallback=False
        )
        _DAEMON_RUNTIME["tcp_client"] = LandscapeClient(
            f"tcp://{host}:{port}",
            fallback=False,
            token="eq-harness-token",
        )
    return _DAEMON_RUNTIME["client"]


def _daemon_tcp_client():
    """The token-authed TCP client against the same shared daemon."""
    _daemon_client()
    return _DAEMON_RUNTIME["tcp_client"]


def daemon_engine(
    ansatz: Ansatz,
    batch: np.ndarray,
    noise=None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The landscape daemon's ``evaluate`` op over its Unix socket.

    Ansatz and noise ship as declarative specs, the batch as a typed
    array codec, and the caller's ``rng`` as a JSON bit-generator state
    that the daemon's executor consumes (parity mode: workers=1,
    two-point shards) and sends back — so this engine must match the
    serial loop in both values and rng stream position, proving the
    wire protocol itself preserves the cross-engine contract.
    """
    return _daemon_client().evaluate_ansatz(
        ansatz, batch, noise=noise, shots=shots, rng=rng
    )


def daemon_tcp_engine(
    ansatz: Ansatz,
    batch: np.ndarray,
    noise=None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """The daemon's ``evaluate`` op over the authenticated TCP front.

    Same daemon, same frames and executor configuration as
    :func:`daemon_engine`, but over TCP with a bearer token — so
    matching the serial loop here proves the authenticated network
    listener preserves the full cross-engine contract too.
    """
    return _daemon_tcp_client().evaluate_ansatz(
        ansatz, batch, noise=noise, shots=shots, rng=rng
    )


#: Engine registry: name -> evaluation function.  ``REFERENCE_ENGINE``
#: is what every other entry is pinned against.
ENGINES: dict[str, EngineFn] = {
    "serial": serial_engine,
    "batched": batched_engine,
    "batched-density": batched_density_engine,
    "sharded": sharded_engine,
    "daemon": daemon_engine,
    "daemon-tcp": daemon_tcp_engine,
}
REFERENCE_ENGINE = "serial"


def assert_engines_match(
    ansatz: Ansatz,
    batch: np.ndarray,
    noise=None,
    shots: int | None = None,
    seed: int = 1234,
    atol: float = ATOL,
) -> None:
    """Assert every registered engine reproduces the reference engine.

    Each engine gets its own generator seeded identically; stochastic
    paths must both produce the same values (identical draw order and
    identical sampled distributions) and leave the generator at the
    same stream position (checked via one probe draw afterwards).
    """
    reference_rng = np.random.default_rng(seed)
    reference = ENGINES[REFERENCE_ENGINE](
        ansatz, batch, noise=noise, shots=shots, rng=reference_rng
    )
    reference_probe = reference_rng.integers(1 << 63)
    for name, engine in ENGINES.items():
        if name == REFERENCE_ENGINE:
            continue
        rng = np.random.default_rng(seed)
        values = engine(ansatz, batch, noise=noise, shots=shots, rng=rng)
        np.testing.assert_allclose(
            values,
            reference,
            rtol=0.0,
            atol=atol,
            err_msg=(
                f"engine {name!r} diverges from {REFERENCE_ENGINE!r} for "
                f"{type(ansatz).__name__} (noise={noise!r}, shots={shots})"
            ),
        )
        probe = rng.integers(1 << 63)
        assert probe == reference_probe, (
            f"engine {name!r} consumed the rng stream differently from "
            f"{REFERENCE_ENGINE!r} for {type(ansatz).__name__} "
            f"(shots={shots}): draw-order parity is part of the contract"
        )


def assert_cost_functions_match(
    function, batch: np.ndarray, atol: float = ATOL
) -> None:
    """Assert a batch-capable cost function's ``many`` equals its loop.

    For wrappers above the ansatz layer (ZNE, CDR, slices) whose rng is
    bound at construction: build two identically-seeded instances and
    pass them through :func:`make_pair` before calling this.
    """
    points = np.asarray(batch, dtype=float)
    serial = np.array([function(point) for point in points])
    batched = np.asarray(function.many(points), dtype=float)
    np.testing.assert_allclose(batched, serial, rtol=0.0, atol=atol)


# -- paper-sized ansatz cases -------------------------------------------------


def qaoa_maxcut(p: int = 1, num_qubits: int = 6, seed: int = 0) -> QaoaAnsatz:
    return QaoaAnsatz(random_3_regular_maxcut(num_qubits, seed=seed), p=p)


def twolocal_sk(reps: int = 1, num_qubits: int = 4, seed: int = 2) -> TwoLocalAnsatz:
    return TwoLocalAnsatz(sk_problem(num_qubits, seed=seed).to_pauli_sum(), reps=reps)


def twolocal_molecular(reps: int = 1) -> TwoLocalAnsatz:
    """Two-local over the non-diagonal H2 Hamiltonian (matrix path)."""
    return TwoLocalAnsatz(h2_hamiltonian(), reps=reps)


def uccsd_h2() -> UccsdAnsatz:
    return UccsdAnsatz(h2_hamiltonian(), num_parameters=3)


def uccsd_lih() -> UccsdAnsatz:
    return UccsdAnsatz(lih_hamiltonian(), num_parameters=8)


def ansatz_cases() -> dict[str, Callable[[], Ansatz]]:
    """Named factories covering all three ansatzes and both observable
    paths (diagonal and dense-matrix)."""
    return {
        "qaoa-maxcut-p1": qaoa_maxcut,
        "qaoa-maxcut-p2": lambda: qaoa_maxcut(p=2),
        "twolocal-sk": twolocal_sk,
        "twolocal-h2": twolocal_molecular,
        "uccsd-h2": uccsd_h2,
        "uccsd-lih": uccsd_lih,
    }


# -- randomized instances for property tests ----------------------------------


def random_parameter_batch(
    ansatz: Ansatz, rng: np.random.Generator, max_rows: int = 8
) -> np.ndarray:
    rows = int(rng.integers(1, max_rows + 1))
    return rng.uniform(-np.pi, np.pi, size=(rows, ansatz.num_parameters))


def random_qaoa(seed: int) -> QaoaAnsatz:
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(3, 8))
    problem = (
        random_3_regular_maxcut(num_qubits, seed=seed)
        if num_qubits % 2 == 0 and num_qubits >= 4
        else sk_problem(num_qubits, seed=seed)
    )
    return QaoaAnsatz(problem, p=int(rng.integers(1, 4)))


def random_twolocal(seed: int) -> TwoLocalAnsatz:
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    hamiltonian = (
        h2_hamiltonian()
        if num_qubits == 2 and rng.random() < 0.5
        else sk_problem(max(num_qubits, 2), seed=seed).to_pauli_sum()
    )
    return TwoLocalAnsatz(hamiltonian, reps=int(rng.integers(0, 3)))


def random_uccsd(seed: int) -> UccsdAnsatz:
    """A UCCSD instance with a randomized excitation layout."""
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    hamiltonian = sk_problem(num_qubits, seed=seed).to_pauli_sum()
    num_parameters = int(rng.integers(1, 7))
    excitations = []
    for _ in range(num_parameters):
        if num_qubits >= 4 and rng.random() < 0.4:
            start = int(rng.integers(0, num_qubits - 3))
            excitations.append(tuple(range(start, start + 4)))
        else:
            pair = rng.choice(num_qubits, size=2, replace=False)
            excitations.append((int(pair[0]), int(pair[1])))
    return UccsdAnsatz(
        hamiltonian, num_parameters=num_parameters, excitations=excitations
    )


def random_noise(seed: int) -> NoiseModel:
    rng = np.random.default_rng(seed + 99)
    return NoiseModel(
        p1=float(rng.uniform(0.0, 0.01)),
        p2=float(rng.uniform(0.0, 0.02)),
        readout=float(rng.uniform(0.0, 0.03)),
    )
