"""Microbenchmark: the batched density engine vs per-row serial simulation.

PR 6's acceptance bar for the noisy execution path: on the Tables 2-3
protocol run *with* noise (2-D slices through Two-local and UCCSD
parameter spaces under the paper's depolarizing + readout rates), the
batched density engine must reproduce the serial per-point
``simulate_density`` loop to machine precision (<= 1e-10) and run at
least 2.5x faster.  A ZNE-folded variant additionally exercises the
per-row channel path, where every batch row carries its own scaled
noise model, and must run at least 7x faster.

Under CI (or ``OSCAR_BENCH_SMOKE=1``) reduced grids run as smoke tests:
equivalence is enforced either way, wall-clock bars only outside CI
(shared runners are too noisy for a hard timing gate — the same policy
as ``test_batched_execution``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from _util import emit, format_table
from repro.ansatz import TwoLocalAnsatz, UccsdAnsatz
from repro.landscape import LandscapeGenerator, cost_function
from repro.landscape.grid import GridAxis, ParameterGrid
from repro.mitigation import ZneConfig, zne_cost_function
from repro.problems import sk_problem
from repro.problems.chemistry import lih_hamiltonian
from repro.quantum import NoiseModel

SMOKE = bool(os.environ.get("OSCAR_BENCH_SMOKE") or os.environ.get("CI"))
POINTS_PER_AXIS = 6 if SMOKE else 16
REPEATS = 1 if SMOKE else 2
#: Bar for the batched density engine against the serial per-row loop.
DENSITY_SPEEDUP_BAR = 2.5
#: Bar for the ZNE-folded grid, where every row carries its own scaled
#: noise model: one skeleton replayed over an angle matrix, with one
#: channel per noise rate, measures ~10x on a 2-core box (the per-row
#: circuit replay it replaced, ~6x).
ZNE_SPEEDUP_BAR = 7.0
#: Bar for a ZNE-folded Two-local slice varying the parameters of the
#: last two gates (8 and 9) against the same slice varying the first two
#: (0 and 1).  The row counts match, so only the replay's shared prefix
#: (one state per scale factor until the first varying gate) separates
#: them: 2.6x on a 2-core box, ~1x without sharing.
SHARED_PREFIX_BAR = 2.0
#: The paper's Fig. 4-family device rates (depolarizing + readout).
NOISE = NoiseModel(p1=0.003, p2=0.007, readout=0.01)


def _slice_points(ansatz, grid, seed, varying=(0, 1)):
    """Embed the 2-D grid into full parameter vectors (slice protocol);
    the grid's first (slower) axis feeds parameter ``varying[0]``."""
    rng = np.random.default_rng(seed)
    fixed = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    points = np.tile(fixed, (grid.size, 1))
    slice_points = grid.points_from_flat(np.arange(grid.size))
    points[:, varying[0]] = slice_points[:, 0]
    points[:, varying[1]] = slice_points[:, 1]
    return points


def _race(function, points, generator):
    """(best serial seconds, best batched seconds, batched, serial)."""
    serial_seconds = batched_seconds = float("inf")
    serial = batched = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        serial = np.array([function(point) for point in points])
        serial_seconds = min(serial_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        batched = generator.evaluate_points(points)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    return serial_seconds, batched_seconds, batched, serial


def test_batched_density_slice_speedup():
    """Noisy Tables 2-3 slices: the batched density engine must match
    the serial density loop to <= 1e-10 and run >= 2.5x faster."""
    axis = GridAxis("a", -np.pi, np.pi, POINTS_PER_AXIS)
    rows = []
    for name, ansatz in (
        ("twolocal-sk5", TwoLocalAnsatz(sk_problem(5, seed=0).to_pauli_sum(), reps=1)),
        ("uccsd-lih", UccsdAnsatz(lih_hamiltonian(), num_parameters=8)),
    ):
        grid = ParameterGrid([axis, GridAxis("b", -np.pi, np.pi, axis.num_points)])
        points = _slice_points(ansatz, grid, seed=0)
        function = cost_function(ansatz, noise=NOISE)
        generator = LandscapeGenerator(function, grid)
        function(points[0])
        generator.evaluate_points(points[:4])  # warm caches
        serial_seconds, batched_seconds, batched, serial = _race(
            function, points, generator
        )
        difference = float(np.abs(batched - serial).max())
        assert difference <= 1e-10, (
            f"{name}: batched density slice deviates from serial by "
            f"{difference:.3e}"
        )
        speedup = serial_seconds / batched_seconds
        rows.append((name, grid.size, serial_seconds, batched_seconds, speedup))
    emit(
        "batched_density_slices",
        format_table(
            ["workload", "points", "serial (s)", "batched (s)", "speedup"],
            rows,
        ),
    )
    if SMOKE:
        return
    for name, _, _, _, speedup in rows:
        assert speedup >= DENSITY_SPEEDUP_BAR, (
            f"{name}: batched density speedup {speedup:.2f}x below the "
            f"{DENSITY_SPEEDUP_BAR}x bar"
        )


def test_batched_density_zne_folded_speedup():
    """ZNE over a noisy Two-local slice folds the scale factors into the
    batch axis, so every row carries its *own* scaled noise model — the
    per-row channel path.  Must match the per-(point, scale) serial
    loop and beat it by >= 7x."""
    ansatz = TwoLocalAnsatz(sk_problem(5, seed=1).to_pauli_sum(), reps=1)
    axis_points = 4 if SMOKE else 10
    grid = ParameterGrid(
        [
            GridAxis("a", -np.pi, np.pi, axis_points),
            GridAxis("b", -np.pi, np.pi, axis_points),
        ]
    )
    points = _slice_points(ansatz, grid, seed=1)
    function = zne_cost_function(
        ansatz, NOISE, ZneConfig((1.0, 2.0, 3.0), "richardson")
    )
    generator = LandscapeGenerator(function, grid)
    function(points[0])
    generator.evaluate_points(points[:4])  # warm caches
    serial_seconds, batched_seconds, batched, serial = _race(
        function, points, generator
    )
    difference = float(np.abs(batched - serial).max())
    assert difference <= 1e-10, (
        f"batched density ZNE deviates from the serial loop by "
        f"{difference:.3e}"
    )
    speedup = serial_seconds / batched_seconds
    emit(
        "batched_density_zne",
        format_table(
            ["metric", "value"],
            [
                ("qubits", ansatz.num_qubits),
                ("grid points", grid.size),
                ("scale factors", 3),
                ("serial loop (s)", serial_seconds),
                ("batched folded (s)", batched_seconds),
                ("speedup", speedup),
                ("max |batched - serial|", difference),
                ("smoke run", SMOKE),
            ],
        ),
    )
    if SMOKE:
        return
    assert speedup >= ZNE_SPEEDUP_BAR, (
        f"batched density ZNE speedup {speedup:.2f}x below the "
        f"{ZNE_SPEEDUP_BAR}x bar"
    )


def test_density_replay_shares_the_frozen_prefix():
    """A ZNE-folded 5-qubit Two-local slice whose varying parameters
    feed the last two gates (8 and 9) must match the serial loop and
    run >= 2x faster than the same slice varying the first two (0 and
    1): the rows of a chunk share one state per scale factor until the
    first varying gate."""
    ansatz = TwoLocalAnsatz(sk_problem(5, seed=1).to_pauli_sum(), reps=1)
    axis = GridAxis("a", -np.pi, np.pi, POINTS_PER_AXIS)
    grid = ParameterGrid([axis, GridAxis("b", -np.pi, np.pi, axis.num_points)])
    function = zne_cost_function(
        ansatz, NOISE, ZneConfig((1.0, 2.0, 3.0), "richardson")
    )
    generator = LandscapeGenerator(function, grid)
    seconds = {}
    for varying in ((0, 1), (8, 9)):
        points = _slice_points(ansatz, grid, seed=1, varying=varying)
        generator.evaluate_points(points[:4])  # warm caches
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            batched = generator.evaluate_points(points)
            best = min(best, time.perf_counter() - start)
        seconds[varying] = best
        subset = points[::7]
        serial = np.array([function(point) for point in subset])
        difference = float(np.abs(batched[::7] - serial).max())
        assert difference <= 1e-10, (
            f"slice varying {varying}: batched density ZNE deviates from "
            f"the serial loop by {difference:.3e}"
        )
    ratio = seconds[(0, 1)] / seconds[(8, 9)]
    emit(
        "batched_density_shared_prefix",
        format_table(
            ["metric", "value"],
            [
                ("qubits", ansatz.num_qubits),
                ("grid points", grid.size),
                ("scale factors", 3),
                ("varying 0, 1 (s)", seconds[(0, 1)]),
                ("varying 8, 9 (s)", seconds[(8, 9)]),
                ("ratio", ratio),
                ("smoke run", SMOKE),
            ],
        ),
    )
    if SMOKE:
        return
    assert ratio >= SHARED_PREFIX_BAR, (
        f"a slice varying parameters 8 and 9 ran only {ratio:.2f}x faster "
        f"than one varying 0 and 1; the bar is {SHARED_PREFIX_BAR}x"
    )
