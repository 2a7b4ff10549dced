"""The headline speedup claim: landscape generation cost, OSCAR vs grid.

The abstract claims "up to 100X speedup" for full-landscape
reconstruction (Sec. 4.3 states 2x-20x for matched accuracy on the
dense grids).  Speedup here is the ratio of circuit executions — the
dominant cost on any real device — between a dense grid search and the
smallest OSCAR sampling fraction that achieves a target NRMSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.qaoa import QaoaAnsatz
from ..landscape.generator import LandscapeGenerator, cost_function
from ..landscape.grid import qaoa_grid
from ..landscape.metrics import nrmse
from ..landscape.reconstructor import OscarReconstructor
from ..problems.maxcut import random_3_regular_maxcut

__all__ = ["SpeedupResult", "measure_speedup"]


@dataclass(frozen=True)
class SpeedupResult:
    """Outcome of one speedup measurement.

    Attributes:
        grid_executions: circuit runs for the dense grid search.
        oscar_executions: circuit runs at the chosen sampling fraction.
        speedup: their ratio.
        achieved_nrmse: reconstruction error at that fraction.
        target_nrmse: the accuracy bar the search used.
        fraction: the chosen sampling fraction.
    """

    grid_executions: int
    oscar_executions: int
    speedup: float
    achieved_nrmse: float
    target_nrmse: float
    fraction: float


def measure_speedup(
    num_qubits: int = 10,
    resolution: tuple[int, int] = (30, 60),
    target_nrmse: float = 0.05,
    fractions: tuple[float, ...] = (0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2),
    seed: int = 0,
    workers: int = 1,
    store=None,
    daemon=None,
) -> SpeedupResult:
    """Find the smallest sampling fraction meeting the accuracy target.

    Sweeps fractions in increasing order and stops at the first whose
    reconstruction meets ``target_nrmse``; the speedup is grid size over
    the samples used.  Falls back to the best fraction tried if none
    meets the target.  ``workers`` shards the (exact) landscape
    evaluation across processes; ``store`` serves the dense ground
    truth from a :class:`~repro.service.store.LandscapeStore` cache;
    ``daemon`` routes it through a running landscape daemon instead
    (shared pool + cache, with in-process fallback).
    """
    problem = random_3_regular_maxcut(num_qubits, seed=seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=resolution)
    generator = LandscapeGenerator(
        cost_function(ansatz), grid, workers=workers, store=store, daemon=daemon
    )
    truth = generator.grid_search()

    best: SpeedupResult | None = None
    for fraction in sorted(fractions):
        reconstructor = OscarReconstructor(grid, rng=seed)
        reconstruction, report = reconstructor.reconstruct(generator, fraction)
        error = nrmse(truth.values, reconstruction.values)
        outcome = SpeedupResult(
            grid_executions=grid.size,
            oscar_executions=report.num_samples,
            speedup=grid.size / report.num_samples,
            achieved_nrmse=error,
            target_nrmse=target_nrmse,
            fraction=fraction,
        )
        if error <= target_nrmse:
            return outcome
        if best is None or error < best.achieved_nrmse:
            best = outcome
    assert best is not None
    return best
