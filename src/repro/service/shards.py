"""Sharded (multiprocess) landscape execution.

:class:`ShardedExecutor` splits a flat run of grid points into
contiguous shards and evaluates them through the existing batched
engine — in-process, or fanned out across a ``multiprocessing`` pool.
Merging is trivial because shards are contiguous: the per-shard value
arrays concatenate back into the original point order.

Reproducibility contract (the part worth being precise about):

- **Exact landscapes** (``shots=None``) involve no rng, so any worker
  count and any shard layout produce values identical to the serial
  and batched engines.
- **Parity mode** (``workers=1`` and no ``seed``): shards are evaluated
  sequentially in-process, threading the *caller's* generator through
  them in shard order.  Because every engine draws shot noise one
  row-block at a time in batch order (the cross-engine rng contract,
  see ``tests/equivalence/harness.py``), this consumes the rng stream
  exactly as the unsharded batched path would — values and final
  stream position are bit-identical to the serial loop.  This is the
  configuration registered in the equivalence harness, which inherits
  the whole cross-engine parity matrix.
- **Spawn mode** (``seed=`` given): each shard gets its own generator,
  spawned from a root ``SeedSequence`` built from ``seed`` plus a
  fingerprint of the evaluated points.  The shard layout depends only
  on the point count and ``shard_points`` — never on the worker count
  — so shot-noise results are bit-identical for any ``workers``
  (1, 2, 4, ...), at the price of a different draw order than the
  serial loop.  The landscape store records ``(seed, shard layout)`` in
  the cache key for exactly this reason.  Folding the point
  fingerprint into the root keeps *different* evaluations under one
  seed statistically independent — a full grid search and a later
  OSCAR sample run must not replay the same streams, or sampled shot
  noise would correlate with the ground truth — while identical
  requests (the thing the store caches) remain bit-reproducible.
- **Multiprocess shot noise without a seed is refused**: shipping one
  generator to N processes would either correlate shards or depend on
  scheduling order, so the executor raises instead of guessing.
"""

from __future__ import annotations

import copy
import hashlib
import math
import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..landscape.generator import evaluate_points_chunked

__all__ = ["Shard", "ShardedExecutor", "plan_shards", "DEFAULT_MAX_SHARDS"]

#: Default shard-count ceiling.  The layout must not depend on the
#: worker count (that is what makes seeded shot noise worker-count
#: independent), so the default splits any run into at most this many
#: contiguous shards and lets the pool schedule them.
DEFAULT_MAX_SHARDS = 16


@dataclass(frozen=True)
class Shard:
    """One contiguous half-open range ``[start, stop)`` of flat points."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of points in the shard."""
        return self.stop - self.start


def plan_shards(size: int, shard_points: int | None = None) -> list[Shard]:
    """Split ``size`` flat indices into contiguous shards.

    The plan is a pure function of ``(size, shard_points)`` — crucially
    *not* of the worker count — so a seeded run's per-shard generators,
    and therefore its shot-noise draws, are identical no matter how many
    workers execute the plan.  ``shard_points=None`` picks the smallest
    per-shard point count that keeps the plan within
    :data:`DEFAULT_MAX_SHARDS` shards.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if size == 0:
        return []
    if shard_points is None:
        shard_points = math.ceil(size / DEFAULT_MAX_SHARDS)
    shard_points = int(shard_points)
    if shard_points < 1:
        raise ValueError(f"shard_points must be >= 1, got {shard_points}")
    return [
        Shard(index, start, min(start + shard_points, size))
        for index, start in enumerate(range(0, size, shard_points))
    ]


def _with_rng(function: Callable, rng: np.random.Generator) -> Callable:
    """A shallow copy of a cost function with its bound rng replaced.

    Cost functions bind their generator at construction
    (``AnsatzCostFunction.rng``, ``ZneCostFunction.rng``); per-shard
    seeding swaps it on a copy so the caller's object is untouched.
    """
    if not hasattr(function, "rng"):
        raise TypeError(
            f"{type(function).__name__} has no 'rng' attribute to reseed; "
            "seeded sharded execution needs a cost function that binds "
            "its generator (AnsatzCostFunction, ZneCostFunction, ...)"
        )
    clone = copy.copy(function)
    clone.rng = rng
    return clone


def _run_function_shard(
    task: tuple[Callable, np.ndarray, int | None, np.random.SeedSequence | None],
) -> np.ndarray:
    """Worker entry: evaluate one shard of points through a cost function."""
    function, points, batch_size, seed_sequence = task
    if seed_sequence is not None:
        function = _with_rng(function, np.random.default_rng(seed_sequence))
    return evaluate_points_chunked(function, points, batch_size)


def _run_ansatz_shard(
    task: tuple[
        Ansatz,
        np.ndarray,
        Any,
        int | None,
        np.random.SeedSequence | np.random.Generator | None,
    ],
) -> np.ndarray:
    """Worker entry: evaluate one shard through ``expectation_many``.

    The last task element is the shard's rng: a spawned
    ``SeedSequence`` (spawn mode), the caller's own generator (parity
    mode, which only ever runs inline) or ``None``.
    """
    ansatz, rows, noise, shots, rng = task
    if isinstance(rng, np.random.SeedSequence):
        rng = np.random.default_rng(rng)
    return ansatz.expectation_many(rows, noise=noise, shots=shots, rng=rng)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the parent's modules);
    spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ShardedExecutor:
    """Fans contiguous grid shards out across a process pool.

    Args:
        workers: process count.  ``1`` evaluates shards sequentially
            in-process (no pool, no pickling) — with no ``seed`` this is
            *parity mode*, bit-identical to the unsharded batched path.
        shard_points: points per shard.  ``None`` = the
            :func:`plan_shards` default (at most
            :data:`DEFAULT_MAX_SHARDS` shards).  The layout never
            depends on ``workers``.
        seed: root seed for per-shard generators
            (``SeedSequence(seed).spawn``) — *spawn mode*, required for
            multiprocess shot noise, and what makes seeded results
            identical for any worker count.
        pool: an already-running ``multiprocessing`` pool to reuse
            instead of forking a fresh one per call.  This is how the
            landscape daemon (:mod:`repro.service.daemon`) amortizes
            pool startup across requests; the pool's lifetime belongs
            to the caller (it is never closed here).  Ignored when a
            run resolves to a single shard (evaluated inline).

    Example — sharded evaluation matches the unsharded batch path to
    machine precision (the cross-engine contract, ``ATOL = 1e-10``)::

        >>> import numpy as np
        >>> from repro.ansatz import QaoaAnsatz
        >>> from repro.landscape import cost_function
        >>> from repro.problems import random_3_regular_maxcut
        >>> from repro.service import ShardedExecutor
        >>> function = cost_function(QaoaAnsatz(random_3_regular_maxcut(4, seed=0), p=1))
        >>> points = np.linspace(0.0, 1.0, 12).reshape(6, 2)
        >>> sharded = ShardedExecutor(workers=1, shard_points=2).run(function, points)
        >>> bool(np.allclose(sharded, function.many(points), rtol=0.0, atol=1e-10))
        True
    """

    def __init__(
        self,
        workers: int = 1,
        shard_points: int | None = None,
        seed: int | None = None,
        pool=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_points is not None and shard_points < 1:
            raise ValueError(f"shard_points must be >= 1, got {shard_points}")
        self.workers = int(workers)
        self.shard_points = shard_points
        self.seed = None if seed is None else int(seed)
        self.pool = pool

    # -- seeding -----------------------------------------------------------

    def shard_seed_sequences(
        self, num_shards: int, points: np.ndarray
    ) -> list[np.random.SeedSequence] | None:
        """Spawned per-shard seed sequences, or ``None`` in parity mode.

        The spawn root mixes ``seed`` with a fingerprint of the
        evaluated points (via ``SeedSequence``'s ``spawn_key``), so two
        different evaluations under the same seed — the dense
        ground-truth grid and a sampled subset of it, say — draw from
        independent streams instead of replaying each other, while the
        same request always reproduces bit-identically for any worker
        count.
        """
        if self.seed is None:
            return None
        digest = hashlib.sha256(
            np.ascontiguousarray(points, dtype=float).tobytes()
        ).digest()
        fingerprint = tuple(
            int.from_bytes(digest[offset : offset + 4], "little")
            for offset in range(0, 16, 4)
        )
        root = np.random.SeedSequence(self.seed, spawn_key=fingerprint)
        return root.spawn(num_shards)

    def _check_stochastic(self, stochastic: bool) -> None:
        if stochastic and self.workers > 1 and self.seed is None:
            raise ValueError(
                "multiprocess shot-noise execution needs seed=: one shared "
                "generator cannot be threaded across processes without "
                "either correlating shards or depending on scheduling "
                "order (pass seed= to spawn per-shard generators)"
            )

    def _execute(
        self,
        worker: Callable,
        points: np.ndarray,
        stochastic: bool,
        task: Callable[[Shard, np.random.SeedSequence | None], tuple],
    ) -> np.ndarray:
        """The one shard loop behind :meth:`run` and :meth:`run_ansatz`.

        Plan contiguous shards, refuse unseeded multiprocess shot noise,
        spawn per-shard seed sequences (spawn mode), build one
        ``task(shard, seed_sequence)`` per shard, run ``worker`` over
        the tasks — inline in shard order with ``workers=1`` or a single
        shard, else on the pool — and concatenate in shard order.  A
        caller-supplied persistent pool (``pool=``) is reused as-is;
        otherwise an ephemeral pool is forked for this call and torn
        down afterwards.
        """
        shards = plan_shards(points.shape[0], self.shard_points)
        if not shards:
            return np.empty(0)
        self._check_stochastic(stochastic)
        sequences = self.shard_seed_sequences(len(shards), points)
        tasks = [
            task(shard, None if sequences is None else sequences[shard.index])
            for shard in shards
        ]
        if self.workers == 1 or len(tasks) == 1:
            return np.concatenate([worker(one) for one in tasks])
        if self.pool is not None:
            return np.concatenate(self.pool.map(worker, tasks))
        processes = min(self.workers, len(tasks))
        with _pool_context().Pool(processes=processes) as pool:
            return np.concatenate(pool.map(worker, tasks))

    # -- cost-function level (the LandscapeGenerator path) -----------------

    def run(
        self,
        function: Callable,
        points: np.ndarray,
        batch_size: int | None = None,
    ) -> np.ndarray:
        """Evaluate an ``(m, ndim)`` point array through a cost function.

        ``function`` is anything :class:`~repro.landscape.generator.LandscapeGenerator`
        accepts (its batched ``many`` path is used when present, in
        ``batch_size``-point chunks per shard).  Returns the ``(m,)``
        values in the original point order.  In parity mode every shard
        runs the caller's function object itself, so its bound rng
        threads through the shards in order.
        """
        points = np.asarray(points, dtype=float)
        return self._execute(
            _run_function_shard,
            points,
            getattr(function, "shots", None) is not None,
            lambda shard, sequence: (
                function,
                points[shard.start : shard.stop],
                batch_size,
                sequence,
            ),
        )

    # -- ansatz level (the equivalence-harness path) -----------------------

    def run_ansatz(
        self,
        ansatz: Ansatz,
        batch: np.ndarray,
        noise=None,
        shots: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Sharded ``expectation_many`` with the cross-engine signature.

        Accepts the same shared-or-per-row ``noise`` spec as
        :meth:`repro.ansatz.base.Ansatz.expectation_many` (per-row
        sequences are sliced alongside the point shards).  In parity
        mode the caller's ``rng`` threads through shards sequentially,
        which is what lets this path register in
        ``tests/equivalence/harness.py`` and pass the full value + rng
        stream-position matrix against the serial engine.
        """
        batch = np.asarray(batch, dtype=float)
        if batch.ndim == 1:
            batch = batch[None, :]
        noise_rows: Sequence | None = None
        if noise is not None and not hasattr(noise, "is_ideal"):
            noise_rows = list(noise)
            if len(noise_rows) != batch.shape[0]:
                raise ValueError(
                    f"per-row noise needs {batch.shape[0]} entries, "
                    f"got {len(noise_rows)}"
                )
        # Only parity mode (workers=1, no seed) hands the caller's
        # generator to the shards; pool workers never see it.
        parity_rng = rng if self.workers == 1 else None

        def task(shard: Shard, sequence: np.random.SeedSequence | None) -> tuple:
            return (
                ansatz,
                batch[shard.start : shard.stop],
                noise if noise_rows is None else noise_rows[shard.start : shard.stop],
                shots,
                parity_rng if sequence is None else sequence,
            )

        return self._execute(_run_ansatz_shard, batch, shots is not None, task)
