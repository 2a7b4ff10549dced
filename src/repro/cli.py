"""Command-line interface: quick OSCAR demos from the terminal.

``oscar-repro`` exposes the library's headline flows without writing
code:

- ``oscar-repro reconstruct`` — reconstruct a QAOA MaxCut landscape and
  print the NRMSE, speedup and an ASCII side-by-side view;
- ``oscar-repro sycamore`` — reconstruct a synthetic Sycamore landscape;
- ``oscar-repro speedup`` — run the headline speedup measurement;
- ``oscar-repro sparsity`` — print DCT sparsity for a problem family;
- ``oscar-repro batch`` — reconstruct a whole sampling-fraction sweep
  in one batched engine pass (optionally timed against the serial loop);
- ``oscar-repro pipeline`` — the one-request OSCAR pipeline: sample,
  evaluate, reconstruct and optimize in a single daemon round-trip
  (or the identical in-process sequence without ``--daemon``);
- ``oscar-repro serve`` — run the landscape daemon (persistent worker
  pool + shared cache behind a Unix socket, plus an authenticated TCP
  listener with ``--tcp``/``--tokens-file``); ``--daemon`` on the
  other commands routes their landscape generation through it
  (``--token`` authenticates against a token-gated daemon);
- ``oscar-repro cache`` — list, clear or summarize a landscape store.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from .ansatz import QaoaAnsatz
from .datasets import sycamore_landscape
from .experiments.speedup import measure_speedup
from .landscape import (
    LandscapeGenerator,
    OscarReconstructor,
    cost_function,
    dct_sparsity,
    nrmse,
    qaoa_grid,
    sample_and_evaluate,
)
from .optimizers import available_optimizers
from .problems import random_3_regular_maxcut, sk_problem
from .quantum import NoiseModel
from .viz import render_side_by_side

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="oscar-repro",
        description="OSCAR compressed-sensing VQA landscape reconstruction demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_service(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers",
            type=int,
            default=1,
            help="processes for sharded landscape execution (default: 1, "
            "in-process); a larger count forks one warm pool at the first "
            "sharded call and reuses it for the rest of the command; with "
            "a pool, this process and its workers run one BLAS thread "
            "(Linux), as idle BLAS threads would contend with the workers "
            "for cores",
        )
        command.add_argument(
            "--cache-dir",
            default=None,
            help="content-addressed landscape store directory; repeated "
            "identical requests become file loads (see `oscar-repro cache`). "
            "NOTE: with --shots, any of --workers > 1, --cache-dir or "
            "--daemon switches execution to the seeded per-shard rng plan "
            "(reproducible for any worker count, but a different draw "
            "order than the default single-process path)",
        )
        command.add_argument(
            "--daemon",
            default=None,
            metavar="TARGET",
            help="route landscape generation through the daemon on this "
            "Unix socket path or `tcp://host:port` target (see "
            "`oscar-repro serve`): shared persistent pool, shared cache, "
            "concurrent identical requests computed once.  Falls back to "
            "in-process execution when no daemon is listening",
        )
        command.add_argument(
            "--token",
            default=None,
            help="bearer token for an authenticated daemon (required for "
            "tcp:// targets; resolves to a tenant namespace server-side)",
        )

    recon = sub.add_parser("reconstruct", help="reconstruct a QAOA landscape")
    recon.add_argument("--qubits", type=int, default=10)
    recon.add_argument("--problem", choices=("maxcut", "sk"), default="maxcut")
    recon.add_argument("--fraction", type=float, default=0.06)
    recon.add_argument("--resolution", type=int, nargs=2, default=(30, 60))
    recon.add_argument("--noisy", action="store_true", help="add depolarizing noise")
    recon.add_argument(
        "--zne",
        choices=("off", "richardson", "linear"),
        default="off",
        help="zero-noise extrapolation on the noisy landscape "
        "(scale factors fold into the batched execution axis; "
        "implies --noisy)",
    )
    recon.add_argument(
        "--shots",
        type=int,
        default=None,
        help="per-query measurement shots (default: exact expectations)",
    )
    recon.add_argument("--seed", type=int, default=0)
    recon.add_argument("--render", action="store_true", help="print ASCII heatmaps")
    add_service(recon)

    syc = sub.add_parser("sycamore", help="reconstruct a synthetic Sycamore landscape")
    syc.add_argument("--kind", choices=("mesh", "3-regular", "sk"), default="sk")
    syc.add_argument("--fraction", type=float, default=0.41)
    syc.add_argument("--seed", type=int, default=0)
    syc.add_argument("--render", action="store_true")
    add_service(syc)

    speed = sub.add_parser("speedup", help="measure the headline speedup")
    speed.add_argument("--qubits", type=int, default=10)
    speed.add_argument("--target-nrmse", type=float, default=0.05)
    speed.add_argument("--seed", type=int, default=0)
    add_service(speed)

    sparse = sub.add_parser("sparsity", help="DCT sparsity of a landscape")
    sparse.add_argument("--qubits", type=int, default=10)
    sparse.add_argument("--problem", choices=("maxcut", "sk"), default="maxcut")
    sparse.add_argument("--seed", type=int, default=0)
    add_service(sparse)

    adaptive = sub.add_parser(
        "adaptive", help="reconstruct with automatically chosen sampling fraction"
    )
    adaptive.add_argument("--qubits", type=int, default=10)
    adaptive.add_argument("--problem", choices=("maxcut", "sk"), default="maxcut")
    adaptive.add_argument("--target-error", type=float, default=0.1)
    adaptive.add_argument("--resolution", type=int, nargs=2, default=(30, 60))
    adaptive.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser(
        "analyze", help="landscape analysis: plateaus, local minima, symmetry"
    )
    analyze.add_argument("--qubits", type=int, default=10)
    analyze.add_argument("--problem", choices=("maxcut", "sk"), default="maxcut")
    analyze.add_argument("--fraction", type=float, default=0.08)
    analyze.add_argument("--resolution", type=int, nargs=2, default=(30, 60))
    analyze.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the landscape daemon (persistent pool + shared cache "
        "on a Unix socket, optionally an authenticated TCP listener)",
    )
    serve.add_argument(
        "--socket",
        default=None,
        help="Unix-socket path to bind (default: oscar-repro.sock in "
        "the working directory)",
    )
    serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="also listen on TCP (bearer-token auth; requires "
        "--tokens-file).  Port 0 binds an ephemeral port, printed at "
        "startup",
    )
    serve.add_argument(
        "--tokens-file",
        default=None,
        metavar="FILE",
        help="JSON bearer-token file mapping tenant names to tokens "
        '(`{"alice": "tok", "bob": {"token": "...", "quota_bytes": 1000}}`); '
        "each tenant gets its own store namespace",
    )
    serve.add_argument(
        "--tenant-quota-bytes",
        type=int,
        default=None,
        help="default per-tenant store byte budget for tenants whose "
        "credential does not set quota_bytes (default: unbounded)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="size of the worker pool the daemon serves every request "
        "from (forked at startup, before the first connection; a lost "
        "worker fails its request with a retryable error and the next "
        "request forks a fresh pool; default: 1, in-process); with a "
        "pool, the daemon and its workers run one BLAS thread (Linux), as "
        "idle BLAS threads would contend with the workers for cores",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="landscape store directory shared by every client "
        "(default: no cache — requests still dedup in flight)",
    )
    serve.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="LRU byte budget for the store (default: unbounded)",
    )

    cache = sub.add_parser(
        "cache", help="inspect, summarize or clear a landscape store"
    )
    cache.add_argument("action", choices=("list", "clear", "stats"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="store directory to operate on (required unless --socket)",
    )
    cache.add_argument(
        "--socket",
        default=None,
        metavar="TARGET",
        help="ask a running daemon instead of reading a directory — a "
        "Unix socket path or `tcp://host:port` (stats: live hit/miss/"
        "dedup counters and per-tenant accounting; list: the daemon's "
        "index; clear is directory-only)",
    )
    cache.add_argument(
        "--token",
        default=None,
        help="bearer token for an authenticated daemon (required for "
        "tcp:// targets)",
    )

    batch = sub.add_parser(
        "batch",
        help="batched engine: reconstruct a whole fraction sweep in one pass",
    )
    batch.add_argument("--qubits", type=int, default=10)
    batch.add_argument("--problem", choices=("maxcut", "sk"), default="maxcut")
    batch.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=(0.04, 0.06, 0.08, 0.10, 0.15),
        help="one landscape is reconstructed per sampling fraction",
    )
    batch.add_argument("--resolution", type=int, nargs=2, default=(30, 60))
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "--compare-serial",
        action="store_true",
        help="also time the serial per-landscape path",
    )
    batch.add_argument(
        "--daemon",
        default=None,
        metavar="TARGET",
        help="serve the dense ground-truth landscape through the daemon "
        "on this Unix socket path or `tcp://host:port` target "
        "(in-process fallback when absent)",
    )
    batch.add_argument(
        "--token",
        default=None,
        help="bearer token for an authenticated daemon (required for "
        "tcp:// targets)",
    )

    pipe = sub.add_parser(
        "pipeline",
        help="one-request OSCAR pipeline: sample, evaluate, reconstruct "
        "and optimize (server-side with --daemon)",
    )
    pipe.add_argument("--qubits", type=int, default=10)
    pipe.add_argument("--problem", choices=("maxcut", "sk"), default="maxcut")
    pipe.add_argument("--fraction", type=float, default=0.08)
    pipe.add_argument("--resolution", type=int, nargs=2, default=(30, 60))
    pipe.add_argument(
        "--optimizer",
        choices=available_optimizers(),
        default="cobyla",
        help="optimizer run on the reconstructed landscape surrogate",
    )
    pipe.add_argument(
        "--sampler", choices=OscarReconstructor.SAMPLERS, default="uniform"
    )
    pipe.add_argument("--noisy", action="store_true", help="add depolarizing noise")
    pipe.add_argument(
        "--shots",
        type=int,
        default=None,
        help="per-query measurement shots (default: exact expectations)",
    )
    pipe.add_argument("--seed", type=int, default=0)
    add_service(pipe)
    return parser


def _problem(kind: str, qubits: int, seed: int):
    if kind == "maxcut":
        return random_3_regular_maxcut(qubits, seed=seed)
    return sk_problem(qubits, seed=seed)


def _service(args: argparse.Namespace, shots: int | None = None) -> dict:
    """Generator keywords for the ``--workers``/``--cache-dir``/
    ``--daemon``/``--token`` flags a command has.

    ``daemon`` is a client carrying ``--token``, for a Unix socket and a
    ``tcp://`` target alike.  With ``shots``, the keywords also carry the
    rng-plan ``seed`` (``--seed``) when the run is multiprocess, cached
    or daemon-served: shot noise there needs a seeding plan the cache
    key can record, while exact runs stay plan-independent.
    """
    from .service import LandscapeClient, LandscapeStore

    workers = getattr(args, "workers", 1)
    cache_dir = getattr(args, "cache_dir", None)
    options = {
        "workers": workers,
        "store": None if cache_dir is None else LandscapeStore(cache_dir),
        "daemon": None
        if args.daemon is None
        else LandscapeClient(args.daemon, token=args.token),
    }
    if shots is not None and (workers > 1 or cache_dir or args.daemon):
        options["seed"] = args.seed
    return options


def _command_reconstruct(args: argparse.Namespace) -> int:
    from .mitigation import ZneConfig, zne_cost_function

    problem = _problem(args.problem, args.qubits, args.seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=tuple(args.resolution))
    mitigated = args.zne != "off"
    noise = NoiseModel(p1=0.003, p2=0.007) if (args.noisy or mitigated) else None
    rng = np.random.default_rng(args.seed) if args.shots is not None else None
    if mitigated:
        config = (
            ZneConfig((1.0, 2.0, 3.0), "richardson")
            if args.zne == "richardson"
            else ZneConfig((1.0, 3.0), "linear")
        )
        function = zne_cost_function(
            ansatz, noise, config, shots=args.shots, rng=rng
        )
        print(
            f"zne: {args.zne} (scales {config.scale_factors}, "
            f"{function.rows_per_point} execution rows per point)"
        )
    else:
        function = cost_function(ansatz, noise=noise, shots=args.shots, rng=rng)
    generator = LandscapeGenerator(function, grid, **_service(args, args.shots))
    truth = generator.grid_search(label="grid-search")
    oscar = OscarReconstructor(grid, rng=args.seed)
    reconstruction, report = oscar.reconstruct(generator, args.fraction)
    print(f"problem: {problem.name}  grid: {grid.shape} ({grid.size} points)")
    print(
        f"samples: {report.num_samples} ({100 * report.sampling_fraction:.1f}%)  "
        f"speedup: {report.speedup:.1f}x  NRMSE: "
        f"{nrmse(truth.values, reconstruction.values):.4f}"
    )
    if args.render:
        print(render_side_by_side(truth, reconstruction))
    return 0


def _command_sycamore(args: argparse.Namespace) -> int:
    hardware, _ = sycamore_landscape(args.kind, seed=args.seed, **_service(args))
    oscar = OscarReconstructor(hardware.grid, rng=args.seed)
    indices = oscar.sample_indices(args.fraction)
    reconstruction, report = oscar.reconstruct_from_samples(
        indices, hardware.flat()[indices]
    )
    print(
        f"sycamore-{args.kind}: {report.num_samples} samples "
        f"({100 * report.sampling_fraction:.0f}%)  NRMSE: "
        f"{nrmse(hardware.values, reconstruction.values):.4f}"
    )
    if args.render:
        print(render_side_by_side(hardware, reconstruction))
    return 0


def _command_speedup(args: argparse.Namespace) -> int:
    result = measure_speedup(
        num_qubits=args.qubits,
        target_nrmse=args.target_nrmse,
        seed=args.seed,
        **_service(args),
    )
    print(
        f"grid: {result.grid_executions} executions  "
        f"oscar: {result.oscar_executions} executions  "
        f"speedup: {result.speedup:.1f}x at NRMSE {result.achieved_nrmse:.4f} "
        f"(target {result.target_nrmse})"
    )
    return 0


def _command_sparsity(args: argparse.Namespace) -> int:
    problem = _problem(args.problem, args.qubits, args.seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(30, 60))
    generator = LandscapeGenerator(cost_function(ansatz), grid, **_service(args))
    truth = generator.grid_search()
    fraction = dct_sparsity(truth.values)
    print(
        f"{problem.name}: {100 * fraction:.4f}% of DCT coefficients hold "
        "99% of the landscape energy"
    )
    return 0


def _command_adaptive(args: argparse.Namespace) -> int:
    from .landscape import AdaptiveConfig, adaptive_reconstruct

    problem = _problem(args.problem, args.qubits, args.seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=tuple(args.resolution))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    oscar = OscarReconstructor(grid, rng=args.seed)
    outcome = adaptive_reconstruct(
        oscar, generator, AdaptiveConfig(target_error=args.target_error)
    )
    for round_index, (fraction, estimate) in enumerate(
        zip(outcome.fractions, outcome.error_estimates)
    ):
        print(
            f"round {round_index}: fraction {100 * fraction:5.1f}%  "
            f"holdout error estimate {estimate:.4f}"
        )
    status = "met" if outcome.met_target else "NOT met (fraction cap)"
    print(
        f"target {args.target_error} {status} with "
        f"{outcome.report.num_samples} circuit executions "
        f"({outcome.report.speedup:.1f}x cheaper than grid search)"
    )
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    from .landscape import (
        barren_plateau_fraction,
        find_local_minima,
        time_reversal_symmetry_error,
    )

    problem = _problem(args.problem, args.qubits, args.seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=tuple(args.resolution))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    oscar = OscarReconstructor(grid, rng=args.seed)
    landscape, report = oscar.reconstruct(generator, args.fraction)
    minima = find_local_minima(landscape)
    print(f"landscape from {report.num_samples} samples ({report.speedup:.1f}x speedup)")
    print(f"barren-plateau fraction: {100 * barren_plateau_fraction(landscape):.1f}%")
    print(f"local minima: {len(minima)} (best {minima[0][1]:+.4f})")
    print(
        f"time-reversal symmetry error: "
        f"{time_reversal_symmetry_error(landscape):.4f} "
        "(should be ~0 for a healthy QAOA landscape)"
    )
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    import time

    problem = _problem(args.problem, args.qubits, args.seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=tuple(args.resolution))
    generator = LandscapeGenerator(cost_function(ansatz), grid, **_service(args))
    truth = generator.grid_search(label="grid-search")
    oscar = OscarReconstructor(grid, rng=args.seed)
    sample_sets = [
        sample_and_evaluate(generator, oscar, fraction)
        for fraction in args.fractions
    ]
    start = time.perf_counter()
    reconstructions = oscar.reconstruct_many(sample_sets)
    batched_seconds = time.perf_counter() - start
    print(
        f"problem: {problem.name}  grid: {grid.shape} ({grid.size} points)  "
        f"stack: {len(sample_sets)} landscapes"
    )
    for fraction, (landscape, report) in zip(args.fractions, reconstructions):
        print(
            f"  fraction {100 * fraction:5.1f}%  samples {report.num_samples:5d}  "
            f"iters {report.solver_iterations:4d}  NRMSE "
            f"{nrmse(truth.values, landscape.values):.4f}"
        )
    print(f"batched engine: {batched_seconds:.3f}s for the whole stack")
    if args.compare_serial:
        start = time.perf_counter()
        for indices, values in sample_sets:
            oscar.reconstruct_from_samples(indices, values)
        serial_seconds = time.perf_counter() - start
        print(
            f"serial loop:    {serial_seconds:.3f}s "
            f"({serial_seconds / max(batched_seconds, 1e-9):.1f}x slower)"
        )
    return 0


def _command_pipeline(args: argparse.Namespace) -> int:
    from .service import PipelineConfig

    problem = _problem(args.problem, args.qubits, args.seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=tuple(args.resolution))
    noise = NoiseModel(p1=0.003, p2=0.007) if args.noisy else None
    rng = np.random.default_rng(args.seed) if args.shots is not None else None
    generator = LandscapeGenerator(
        cost_function(ansatz, noise=noise, shots=args.shots, rng=rng),
        grid,
        **_service(args, args.shots),
    )
    config = PipelineConfig(
        fraction=args.fraction,
        sampler=args.sampler,
        optimizer=args.optimizer,
    )
    outcome = generator.run_pipeline(config, sample_rng=args.seed)
    report = outcome.report
    result = outcome.optimization
    print(f"problem: {problem.name}  grid: {grid.shape} ({grid.size} points)")
    print(
        f"samples: {report.num_samples} ({100 * report.sampling_fraction:.1f}%)  "
        f"speedup: {report.speedup:.1f}x  solver iters: "
        f"{report.solver_iterations}"
    )
    point = "  ".join(f"{value:+.4f}" for value in result.parameters)
    print(
        f"{args.optimizer}: best {result.value:+.6f} at [{point}]  "
        f"queries {result.num_queries}  "
        f"{'converged' if result.converged else 'NOT converged'}"
    )
    stages = "  ".join(
        f"{name} {seconds * 1000:.1f}ms"
        for name, seconds in outcome.timings.items()
    )
    if stages:
        print(f"stages: {stages}")
    served = outcome.served_by
    if outcome.key is not None:
        served += f"  (cached as {outcome.key})"
    print(f"served by: {served}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .service import DEFAULT_SOCKET, LandscapeDaemon

    socket_path = args.socket or DEFAULT_SOCKET
    try:
        daemon = LandscapeDaemon(
            socket_path,
            workers=args.workers,
            cache_dir=args.cache_dir,
            max_bytes=args.max_bytes,
            tcp=args.tcp,
            tokens_file=args.tokens_file,
            tenant_quota_bytes=args.tenant_quota_bytes,
        )
    except ValueError as error:
        print(f"serve: {error}")
        return 2
    cache = args.cache_dir or "disabled (in-flight dedup only)"
    try:
        # Bind before printing the banner so --tcp HOST:0 reports the
        # ephemeral port it actually got (serve_forever's own bind is
        # idempotent).
        daemon.start()
    except OSError as error:
        print(f"serve: cannot bind: {error}")
        return 2
    print(
        f"landscape daemon: socket {socket_path}  workers {args.workers}  "
        f"cache {cache}"
    )
    if daemon.tcp_address is not None:
        host, port = daemon.tcp_address
        print(
            f"  tcp tcp://{host}:{port}  (bearer tokens from "
            f"{args.tokens_file})"
        )
    print("serving; stop with Ctrl-C or a client shutdown request")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
    print("daemon stopped")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from .service import (
        DaemonError,
        DaemonUnavailable,
        LandscapeClient,
        LandscapeStore,
    )

    if args.socket is not None and args.action in ("list", "stats"):
        client = LandscapeClient(args.socket, fallback=False, token=args.token)
        try:
            return _cache_from_daemon(client, args.action)
        except DaemonUnavailable:
            print(f"cache: no landscape daemon reachable on {args.socket}")
            return 2
        except DaemonError as error:
            print(f"cache: daemon refused the request: {error}")
            return 2

    if args.cache_dir is None:
        print("cache: --cache-dir is required (or --socket for a daemon)")
        return 2
    store = LandscapeStore(args.cache_dir)
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} cached landscape(s) from {store.root}")
        return 0
    if args.action == "stats":
        stats = store.stats()
        budget = "unbounded" if stats["max_bytes"] is None else stats["max_bytes"]
        print(
            f"{stats['entries']} cached landscape(s) in {stats['root']}: "
            f"{stats['payload_bytes']} payload bytes (budget: {budget})"
        )
        return 0
    return _print_listing(
        f"in {store.root}",
        [(entry.key, entry.payload_bytes, entry.label) for entry in store.entries()],
    )


def _print_listing(where: str, rows: list[tuple[str, int, str]]) -> int:
    """``oscar-repro cache list`` output: one ``(key, bytes, label)`` row
    per entry, least recently used first (the order both sources use)."""
    if not rows:
        print(f"no cached landscapes {where}")
        return 0
    total = sum(size for _, size, _ in rows)
    print(
        f"{len(rows)} cached landscape(s) {where} "
        f"({total} payload bytes), LRU first:"
    )
    for key, size, label in rows:
        print(f"  {key}  {size:>8d} B  {label}")
    return 0


def _cache_from_daemon(client, action: str) -> int:
    """``oscar-repro cache list|stats`` against a live daemon socket."""
    if action == "stats":
        stats = client.stats()
        counters = stats["counters"]
        print(
            f"daemon pid {stats['pid']}  workers {stats['workers']}  "
            f"uptime {stats['uptime']:.1f}s"
        )
        print(
            "  requests {requests}  hits {hits}  misses {misses}  "
            "computed {computed}  deduped {deduped}  "
            "errors {errors}".format(**counters)
        )
        print(
            "  sparse: read-through {sparse_hits}  computed "
            "{sparse_computed}  deduped {sparse_deduped}  "
            "pipelines {pipeline_runs}".format(
                **{
                    name: counters.get(name, 0)
                    for name in (
                        "sparse_hits",
                        "sparse_computed",
                        "sparse_deduped",
                        "pipeline_runs",
                    )
                }
            )
        )
        store = stats["store"]
        if store is None:
            print("  store: disabled")
        else:
            print(
                f"  store: {store['entries']} entries, "
                f"{store['payload_bytes']} payload bytes in "
                f"{store['root']}"
            )
        for tenant, accounting in stats.get("tenants", {}).items():
            ops = "  ".join(
                f"{op} {count}"
                for op, count in sorted(accounting.get("ops", {}).items())
            )
            tenant_store = accounting.get("store")
            if tenant_store is None:
                usage = "store disabled"
            else:
                budget = tenant_store.get("max_bytes")
                budget = "unbounded" if budget is None else f"{budget} B quota"
                usage = (
                    f"{tenant_store['entries']} entries, "
                    f"{tenant_store['payload_bytes']} B ({budget})"
                )
            print(f"  tenant {tenant}: {usage}" + (f"  ops: {ops}" if ops else ""))
        return 0
    return _print_listing(
        "served by the daemon",
        [
            (entry["key"], entry["payload_bytes"], entry["label"])
            for entry in client.index()
        ],
    )


_COMMANDS = {
    "reconstruct": _command_reconstruct,
    "sycamore": _command_sycamore,
    "speedup": _command_speedup,
    "sparsity": _command_sparsity,
    "adaptive": _command_adaptive,
    "analyze": _command_analyze,
    "batch": _command_batch,
    "pipeline": _command_pipeline,
    "serve": _command_serve,
    "cache": _command_cache,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
