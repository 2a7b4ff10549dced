"""Sharded (multiprocess) landscape execution.

:class:`ShardedExecutor` splits a flat run of grid points into
contiguous shards and evaluates them through the existing batched
engine — in-process, or fanned out across the process's worker pool.
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
  on the point count (:func:`plan_shards`) — never on the worker count
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

Pool lifetime: a process has one warm pool per worker count
(:func:`worker_pool`, the only place one is created).  It forks on first
use, serves every later call in that process (library and daemon
alike), and shuts down when the interpreter exits; its workers exit with
the process even when it ends without running exit handlers.  A worker
that dies fails the call it was serving with ``BrokenProcessPool``, and
the next call gets a fresh pool.  Once a process forks a pool, it and
its workers run one BLAS thread (on Linux, where the OpenBLAS libraries
are found), and the workers keep their freed engine stacks in the heap
and hold none of the sockets the process had open when it forked;
:func:`worker_pool` gives the measured reasons.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import hashlib
import math
import multiprocessing
import os
import stat
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..landscape.generator import evaluate_points_chunked

__all__ = [
    "Shard",
    "ShardedExecutor",
    "plan_shards",
    "worker_pool",
    "DEFAULT_MAX_SHARDS",
]

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
    task: tuple[Callable, np.ndarray, np.random.SeedSequence | None],
) -> np.ndarray:
    """Worker entry: evaluate one shard of points through a cost function."""
    function, points, seed_sequence = task
    if seed_sequence is not None:
        function = _with_rng(function, np.random.default_rng(seed_sequence))
    return evaluate_points_chunked(function, points)


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


#: ``(set, get)`` thread-count symbols of the OpenBLAS builds numpy and
#: scipy ship (64-bit-integer first), then of a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """``(set_num_threads, get_num_threads)`` of every OpenBLAS mapped
    into this process; empty when none is (or off Linux).

    Found once per process — a ``/proc/self/maps`` scan costs ~1.8 ms,
    and importing this module has already mapped numpy's and scipy's
    libraries.  Forked workers inherit the result with the mappings.
    """
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
                    paths.add(fields[5].strip())
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # replaced on disk: maps shows "<path> (deleted)"
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                set_threads = getattr(library, set_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads = getattr(library, get_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return tuple(controls)


#: glibc ``mallopt`` parameters (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Workers serve allocations below this from the heap instead of a fresh
#: ``mmap``: glibc's 64-bit ceiling, the value its dynamic threshold
#: converges to.
_WORKER_MMAP_THRESHOLD = 32 * 1024 * 1024
#: Free heap top a worker keeps before glibc trims it: twice the mmap
#: threshold, as glibc's dynamic rule sets it.
_WORKER_TRIM_THRESHOLD = 2 * _WORKER_MMAP_THRESHOLD
#: Seconds between a worker's checks that its parent process still lives.
_PARENT_POLL_S = 0.5

#: The process's pools, keyed by ``(pid, worker count)`` so that a forked
#: child never reuses its parent's executor.  Daemon request threads
#: reach it concurrently, hence the lock.
_POOLS: dict[tuple[int, int], ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _keep_freed_stacks() -> None:
    """Raise glibc's mmap and trim thresholds (skipped without ``mallopt``)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt: not glibc
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)


def _exit_with_parent(parent: int) -> None:
    """Exit this worker once ``parent`` is no longer its parent process."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _drop_inherited_sockets() -> None:
    """Point every socket descriptor the fork copied, except the
    standard streams, at ``/dev/null`` (skipped without ``/proc``).

    A pool forked while the process serves (a daemon replacing a lost
    worker on a request thread) would otherwise hold its listeners and
    client connections for its whole life: a closed listener's port
    keeps accepting, and the daemon never sees a client's EOF.  The
    descriptor is replaced, not closed, because a socket object the
    fork copied still names its number, which must not be reused.  The
    pool's own queues are pipes, so they stay, and so do the standard
    streams: a service manager may hand the process a socket as its log.
    """
    try:
        entries = os.listdir("/proc/self/fd")
    except OSError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in map(int, entries):
            try:
                if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:  # the listing's own descriptor, closed since
                continue
    finally:
        os.close(null)


def _start_worker(parent: int) -> None:
    """Pool-worker initializer; runs in the workers only."""
    _drop_inherited_sockets()
    _keep_freed_stacks()
    threading.Thread(
        target=_exit_with_parent, args=(parent,), name="exit-with-parent", daemon=True
    ).start()


def _forget_pool(processes: int, pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool from the registry, unless a caller already
    replaced it; the executor has terminated its workers itself."""
    key = (os.getpid(), processes)
    with _POOLS_LOCK:
        if _POOLS.get(key) is pool:
            del _POOLS[key]


def worker_pool(processes: int) -> ProcessPoolExecutor:
    """This process's pool of ``processes`` workers, forked on first use.

    The one way this package creates a worker pool.  Every later sharded
    call in the process, library and daemon alike, reuses it, so no call
    pays a fork; ``concurrent.futures`` shuts it down when the
    interpreter exits.  A worker that dies makes the call it serves
    raise ``BrokenProcessPool`` instead of hanging it, and
    :class:`ShardedExecutor` then drops the pool, so the next call gets
    a fresh one.

    Creating the pool:

    - **BLAS pin.**  Pins every OpenBLAS mapped into this process to one
      thread before the fork, and leaves the pin in place, so the
      workers inherit one BLAS thread and never start OpenBLAS's thread
      pool, whose idle threads would spin on the cores the other workers
      need.  On 2 cores, the first map of the 8-qubit, 5000-point QAOA
      grid on a fresh 2-worker pool took a median 67–78 ms with the kept
      pin, against 115 ms pinning in a pool initializer, 118–121 ms
      pinning, then restoring the parent after the fork, and 347–399 ms
      unpinned: ``openblas_set_num_threads`` re-creates the threads a
      fork shut down.  For the same reason a library already at one
      thread is not set again.  The cost: a later in-process
      ``workers=1`` run is single-threaded too — no slower at 8–12
      qubits, ~13% slower at 14 (best of 5 on a 10x20 grid: 237 →
      268 ms).
    - **Fork where available** (spawn elsewhere): cheap, and the workers
      inherit the parent's modules as they are, including wrappers a
      profiler installed before the first fork.  A fork-context executor
      forks its workers at the first submit, not at construction, so
      the creating call submits a no-op at once: a daemon creates its
      pool before it starts any serving thread.
    - **Heap pin, workers only.**  Each worker raises glibc's mmap
      threshold to 32 MiB and its trim threshold to 64 MiB (no-op
      without ``mallopt``).  At the defaults a freed multi-megabyte
      engine stack goes back to the OS and the next chunk faults it in
      again: a ``grid-cold``-sized ZNE slice (676 points, 5 qubits,
      three scale factors) took ~28K minor faults inside the workers on
      every call.  With the pin a fresh pool took ~5.5K on its first
      call, ~0.6K on the second and under 50 after.  The caller's own
      process keeps glibc's defaults.
    - **No inherited sockets, workers only.**  Each worker points the
      socket descriptors the fork copied at ``/dev/null``
      (:func:`_drop_inherited_sockets`).  A daemon replacing a lost
      worker forks on a request thread with its listeners and client
      connections open; held by the workers, they made its ``close()``
      wait out the full drain: 5.0 s, against under 10 ms without them.
    - **Workers exit with their process.**  A persistent pool idles
      between calls, so a process that ends without running exit
      handlers (SIGKILL, ``os._exit``) would leave its workers blocked
      on the call queue for good.  Each worker polls its parent pid
      every half second and exits once it is reparented.
      ``PR_SET_PDEATHSIG`` would not do: it fires when the forking
      *thread* exits, and a daemon may rebuild its pool from a request
      thread.
    """
    key = (os.getpid(), processes)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        created = pool is None
        if created:
            for set_threads, get_threads in _openblas_thread_controls():
                if get_threads() != 1:
                    set_threads(1)
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            pool = _POOLS[key] = ProcessPoolExecutor(
                processes,
                mp_context=context,
                initializer=_start_worker,
                initargs=(os.getpid(),),
            )
    if created:
        # Fork now, outside the lock: a worker that inherited the lock
        # held could never take it.
        pool.submit(os.getpid).result()
    return pool


class ShardedExecutor:
    """Fans contiguous grid shards out across a process pool.

    Args:
        workers: process count.  ``1`` evaluates shards sequentially
            in-process (no pool, no pickling) — with no ``seed`` this is
            *parity mode*, bit-identical to the unsharded batched path.
            Larger counts run on this process's warm pool of that size
            (:func:`worker_pool`): the first such call forks it, and
            from then on this process and its workers run one BLAS
            thread (Linux only), because inherited idle BLAS threads
            spin on the cores the workers need.
        shard_points: points per shard.  ``None`` = the
            :func:`plan_shards` default (at most
            :data:`DEFAULT_MAX_SHARDS` shards), which every program
            path uses; the equivalence harness and the shard tests pin
            small shards to force splits.  The layout never depends on
            ``workers``.
        seed: root seed for per-shard generators
            (``SeedSequence(seed).spawn``) — *spawn mode*, required for
            multiprocess shot noise, and what makes seeded results
            identical for any worker count.

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
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_points is not None and shard_points < 1:
            raise ValueError(f"shard_points must be >= 1, got {shard_points}")
        self.workers = int(workers)
        self.shard_points = shard_points
        self.seed = None if seed is None else int(seed)

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
        shard, else on the process's pool (:func:`worker_pool`) — and
        concatenate in shard order.  The pool gets one batch of tasks
        per worker, so each worker unpickles the cost function and
        builds its ansatz caches once per call.  A worker lost mid-call
        raises ``BrokenProcessPool`` here; the broken pool leaves the
        registry first, so the next call forks a fresh one.
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
        pool = worker_pool(self.workers)
        chunksize = math.ceil(len(tasks) / self.workers)
        try:
            return np.concatenate(list(pool.map(worker, tasks, chunksize=chunksize)))
        except BrokenProcessPool:
            _forget_pool(self.workers, pool)
            raise

    # -- cost-function level (the LandscapeGenerator path) -----------------

    def run(self, function: Callable, points: np.ndarray) -> np.ndarray:
        """Evaluate an ``(m, ndim)`` point array through a cost function.

        ``function`` is anything :class:`~repro.landscape.generator.LandscapeGenerator`
        accepts (its batched ``many`` path is used when present, in
        memory-capped chunks per shard).  Returns the ``(m,)`` values in
        the original point order.  In parity mode every shard
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
