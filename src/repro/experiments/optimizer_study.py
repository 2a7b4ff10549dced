"""Runners for the optimizer use cases: Figs. 11-13 and Table 6.

- :func:`run_endpoint_distance_study` (Fig. 12): optimize the same
  instances (a) on the interpolated reconstructed landscape and (b) by
  circuit execution, and measure the Euclidean distance between the
  two optimization endpoints.
- :func:`run_optimizer_choice` (Fig. 13): compare a gradient-based and
  a gradient-free optimizer on a Richardson-mitigated (jagged)
  landscape, where the gradient-free one should win.
- :func:`run_table6_initialization` (Table 6): count QPU queries to
  convergence with random vs OSCAR-chosen initial points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.qaoa import QaoaAnsatz
from ..initialization.initializer import OscarInitializer, random_initial_point
from ..landscape.generator import LandscapeGenerator, cost_function
from ..landscape.grid import qaoa_grid
from ..landscape.interpolate import InterpolatedLandscape
from ..landscape.reconstructor import OscarReconstructor
from ..mitigation.zne import zne_cost_function
from ..optimizers.adam import Adam
from ..optimizers.base import CountingObjective, OptimizationResult, Optimizer
from ..optimizers.scipy_wrappers import Cobyla
from ..problems.maxcut import random_3_regular_maxcut
from .configs import FIG4_NOISE, FIG9_NOISE
from .mitigation_study import RICHARDSON

__all__ = [
    "EndpointDistance",
    "run_endpoint_distance_study",
    "OptimizerChoiceResult",
    "run_optimizer_choice",
    "Table6Row",
    "run_table6_initialization",
]


@dataclass(frozen=True)
class EndpointDistance:
    """Fig. 12 data point: one instance, one optimizer, one setting."""

    optimizer: str
    noisy: bool
    instance_seed: int
    distance: float
    surrogate_value: float
    circuit_value: float


def _make_optimizer(name: str) -> Optimizer:
    """Optimizers with convergence-based stopping (Table 6 counts
    queries *to convergence*, so the iteration cap must not bind)."""
    if name == "adam":
        return Adam(maxiter=300, tolerance=1e-3, gradient_tolerance=5e-3)
    if name == "cobyla":
        return Cobyla(maxiter=400)
    raise ValueError(f"unknown optimizer {name!r}")


def run_endpoint_distance_study(
    optimizers: tuple[str, ...] = ("adam", "cobyla"),
    noisy_settings: tuple[bool, ...] = (False, True),
    num_qubits: int = 8,
    num_instances: int = 4,
    resolution: tuple[int, int] = (20, 40),
    sampling_fraction: float = 0.10,
    seed: int = 0,
) -> list[EndpointDistance]:
    """Fig. 12: endpoint distance, surrogate vs circuit optimization.

    Both runs start from the *same* random initial point, so endpoint
    distance isolates the landscape-fidelity effect.
    """
    results = []
    noise = FIG4_NOISE
    for noisy in noisy_settings:
        for instance in range(num_instances):
            instance_seed = seed + instance
            problem = random_3_regular_maxcut(num_qubits, seed=instance_seed)
            ansatz = QaoaAnsatz(problem, p=1)
            grid = qaoa_grid(p=1, resolution=resolution)
            active_noise = noise if noisy else None
            generator = LandscapeGenerator(
                cost_function(ansatz, noise=active_noise), grid
            )
            reconstructor = OscarReconstructor(grid, rng=instance_seed)
            reconstruction, _ = reconstructor.reconstruct(generator, sampling_fraction)
            surrogate = InterpolatedLandscape(reconstruction)
            rng = np.random.default_rng(instance_seed + 77)
            start = random_initial_point(grid.bounds, rng)
            for optimizer_name in optimizers:
                surrogate_result = _make_optimizer(optimizer_name).minimize(
                    surrogate, start
                )
                circuit_result = _make_optimizer(optimizer_name).minimize(
                    generator.evaluate_point, start
                )
                distance = float(
                    np.linalg.norm(
                        surrogate_result.parameters - circuit_result.parameters
                    )
                )
                results.append(
                    EndpointDistance(
                        optimizer=optimizer_name,
                        noisy=noisy,
                        instance_seed=instance_seed,
                        distance=distance,
                        surrogate_value=surrogate_result.value,
                        circuit_value=circuit_result.value,
                    )
                )
    return results


@dataclass(frozen=True)
class OptimizerChoiceResult:
    """Fig. 13 outcome: optimizer performance on a jagged landscape."""

    optimizer: str
    final_value: float
    num_queries: int
    path: np.ndarray
    start_index: int = 0


def run_optimizer_choice(
    num_qubits: int = 8,
    resolution: tuple[int, int] = (20, 40),
    shots: int = 512,
    sampling_fraction: float = 0.15,
    num_starts: int = 1,
    seed: int = 0,
) -> list[OptimizerChoiceResult]:
    """Fig. 13: ADAM vs COBYLA on a Richardson-mitigated landscape.

    The landscape is Fig. 9's Richardson configuration (``FIG9_NOISE``),
    whose salt noise defeats finite-difference gradients, so the
    gradient-free COBYLA reaches a lower final value — the paper's
    optimizer-selection takeaway.  The paper shows one illustrative run;
    pass ``num_starts > 1`` to aggregate the comparison over several
    random initial points (both optimizers always share each start).
    """
    problem = random_3_regular_maxcut(num_qubits, seed=seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=resolution)
    rng = np.random.default_rng(seed)
    function = zne_cost_function(ansatz, FIG9_NOISE, RICHARDSON, shots=shots, rng=rng)
    generator = LandscapeGenerator(function, grid)
    reconstructor = OscarReconstructor(grid, rng=seed)
    reconstruction, _ = reconstructor.reconstruct(generator, sampling_fraction)
    start_rng = np.random.default_rng(seed + 1)
    outcomes = []
    for start_index in range(num_starts):
        start = random_initial_point(grid.bounds, start_rng)
        for name in ("adam", "cobyla"):
            surrogate = InterpolatedLandscape(reconstruction)
            result = _make_optimizer(name).minimize(surrogate, start)
            outcomes.append(
                OptimizerChoiceResult(
                    optimizer=name,
                    final_value=result.value,
                    num_queries=result.num_queries,
                    path=result.path,
                    start_index=start_index,
                )
            )
    return outcomes


@dataclass(frozen=True)
class Table6Row:
    """One row of Table 6: queries to convergence for one setting."""

    optimizer: str
    noisy: bool
    random_init_queries: float
    oscar_init_queries: float
    oscar_total_queries: float
    """OSCAR optimization queries plus reconstruction queries."""
    random_final_value: float
    oscar_final_value: float


def run_table6_initialization(
    optimizers: tuple[str, ...] = ("adam", "cobyla"),
    noisy_settings: tuple[bool, ...] = (False, True),
    num_qubits: int = 8,
    num_instances: int = 4,
    sampling_fraction: float = 0.08,
    seed: int = 0,
) -> list[Table6Row]:
    """Table 6: QPU queries with random vs OSCAR initialization.

    Every instance runs on a 16 x 32 p=1 grid.

    For each instance: (a) run the optimizer on the circuit objective
    from a random point; (b) reconstruct the landscape with OSCAR,
    optimize on the interpolation (free), then run the optimizer on the
    circuit objective from the OSCAR point.  Reports mean queries.
    """
    rows = []
    for optimizer_name in optimizers:
        for noisy in noisy_settings:
            random_queries: list[int] = []
            oscar_queries: list[int] = []
            oscar_total: list[int] = []
            random_values: list[float] = []
            oscar_values: list[float] = []
            for instance in range(num_instances):
                instance_seed = seed + instance
                problem = random_3_regular_maxcut(num_qubits, seed=instance_seed)
                ansatz = QaoaAnsatz(problem, p=1)
                grid = qaoa_grid(p=1, resolution=(16, 32))
                active_noise = FIG4_NOISE if noisy else None
                generator = LandscapeGenerator(
                    cost_function(ansatz, noise=active_noise), grid
                )
                rng = np.random.default_rng(instance_seed + 13)

                # Baseline: random initialization, circuit execution.
                counting = CountingObjective(generator.evaluate_point)
                start = random_initial_point(grid.bounds, rng)
                baseline = _make_optimizer(optimizer_name).minimize(counting, start)
                random_queries.append(counting.num_queries)
                random_values.append(baseline.value)

                # OSCAR initialization.
                initializer = OscarInitializer(
                    OscarReconstructor(grid, rng=instance_seed),
                    _make_optimizer(optimizer_name),
                    sampling_fraction=sampling_fraction,
                    rng=instance_seed,
                )
                outcome = initializer.choose(generator)
                counting = CountingObjective(generator.evaluate_point)
                refined = _make_optimizer(optimizer_name).minimize(
                    counting, outcome.initial_point
                )
                oscar_queries.append(counting.num_queries)
                oscar_total.append(
                    counting.num_queries + outcome.reconstruction_queries
                )
                oscar_values.append(refined.value)
            rows.append(
                Table6Row(
                    optimizer=optimizer_name,
                    noisy=noisy,
                    random_init_queries=float(np.mean(random_queries)),
                    oscar_init_queries=float(np.mean(oscar_queries)),
                    oscar_total_queries=float(np.mean(oscar_total)),
                    random_final_value=float(np.mean(random_values)),
                    oscar_final_value=float(np.mean(oscar_values)),
                )
            )
    return rows
