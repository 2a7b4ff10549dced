"""Runner for Fig. 4 (NRMSE vs sampling fraction) and Fig. 6 (Sycamore).

Fig. 4 sweeps the sampling fraction for p=1 and p=2 QAOA-MaxCut
landscapes, ideal and noisy, across qubit counts, reporting quartiles
over problem instances.  Fig. 6 does the same on the (synthetic)
Sycamore hardware landscapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.qaoa import QaoaAnsatz
from ..datasets.sycamore import SYCAMORE_PROBLEMS, sycamore_landscape
from ..landscape.generator import LandscapeGenerator, cost_function
from ..landscape.grid import qaoa_grid
from ..landscape.metrics import nrmse
from ..landscape.reconstructor import OscarReconstructor, sample_and_evaluate
from ..problems.maxcut import random_3_regular_maxcut
from ..quantum.noise import NoiseModel
from .configs import DEFAULT, FIG4_NOISE, ExperimentScale

__all__ = ["FractionSweepPoint", "run_fig4_sweep", "run_fig6_sycamore"]


@dataclass(frozen=True)
class FractionSweepPoint:
    """One (configuration, sampling fraction) cell of Fig. 4 / Fig. 6."""

    p: int
    noisy: bool
    num_qubits: int
    sampling_fraction: float
    nrmse_q1: float
    nrmse_median: float
    nrmse_q3: float


def _instance_errors(
    p: int,
    num_qubits: int,
    noise: NoiseModel | None,
    fraction: float,
    num_instances: int,
    scale: ExperimentScale,
    seed: int,
    shots: int | None,
) -> np.ndarray:
    """Per-instance NRMSE; sampling/execution stay per-instance (seeded
    identically to the serial path) while the reconstructions of all
    instances run through one batched engine pass."""
    resolution = scale.p1_resolution if p == 1 else scale.p2_resolution
    truths = []
    sample_sets = []
    grid = qaoa_grid(p=p, resolution=resolution)
    for instance in range(num_instances):
        problem = random_3_regular_maxcut(num_qubits, seed=seed + instance)
        ansatz = QaoaAnsatz(problem, p=p)
        rng = np.random.default_rng(seed + 57 * instance)
        generator = LandscapeGenerator(
            cost_function(ansatz, noise=noise, shots=shots, rng=rng), grid
        )
        truths.append(generator.grid_search())
        reconstructor = OscarReconstructor(grid, rng=seed + 101 * instance)
        sample_sets.append(sample_and_evaluate(generator, reconstructor, fraction))
    reconstructions = OscarReconstructor(grid).reconstruct_many(sample_sets)
    return np.asarray(
        [
            nrmse(truth.values, reconstruction.values)
            for truth, (reconstruction, _) in zip(truths, reconstructions)
        ]
    )


def run_fig4_sweep(
    p: int,
    noisy: bool,
    scale: ExperimentScale = DEFAULT,
    qubit_counts: tuple[int, ...] | None = None,
    seed: int = 0,
) -> list[FractionSweepPoint]:
    """One panel of Fig. 4: quartile NRMSE vs sampling fraction.

    Args:
        p: QAOA depth (1 or 2).
        noisy: apply the Fig. 4 depolarizing model if True.  Noisy
            execution also samples 4096 measurement shots per point
            (pure analytic depolarizing is an affine landscape transform
            that the scale-invariant NRMSE cannot see; shot statistics
            are what make noisy reconstruction genuinely harder).  Ideal
            panels use exact expectations, as in the paper.
        scale: experiment sizing (resolutions, instance counts).
        qubit_counts: overrides the scale's qubit list.
        seed: base seed; instances use ``seed + i``.
    """
    noise = FIG4_NOISE if noisy else None
    if qubit_counts is None:
        qubit_counts = scale.qubits_noisy if noisy else scale.qubits_ideal
    points = []
    for num_qubits in qubit_counts:
        for fraction in scale.sampling_fractions:
            errors = _instance_errors(
                p,
                num_qubits,
                noise,
                fraction,
                scale.num_instances,
                scale,
                seed,
                4096 if noisy else None,
            )
            q1, median, q3 = np.percentile(errors, (25, 50, 75))
            points.append(
                FractionSweepPoint(
                    p=p,
                    noisy=noisy,
                    num_qubits=num_qubits,
                    sampling_fraction=fraction,
                    nrmse_q1=float(q1),
                    nrmse_median=float(median),
                    nrmse_q3=float(q3),
                )
            )
    return points


def run_fig6_sycamore(
    fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5),
    seed: int = 0,
) -> dict[str, list[tuple[float, float]]]:
    """Fig. 6: reconstruction error vs sampling fraction, per problem.

    Returns ``{kind: [(fraction, nrmse), ...]}`` over the three synthetic
    Sycamore landscapes (``SYCAMORE_PROBLEMS``).
    """
    curves: dict[str, list[tuple[float, float]]] = {}
    for kind in SYCAMORE_PROBLEMS:
        hardware, _ = sycamore_landscape(kind, seed=seed)
        grid = hardware.grid
        rng = np.random.default_rng(seed + 17)
        # Sample every fraction first (same RNG draw order as the old
        # serial loop), then reconstruct the whole sweep in one batch.
        reconstructor = OscarReconstructor(grid, rng=rng)
        sample_sets = []
        for fraction in fractions:
            indices = reconstructor.sample_indices(fraction)
            sample_sets.append((indices, hardware.flat()[indices]))
        reconstructions = reconstructor.reconstruct_many(sample_sets)
        curves[kind] = [
            (fraction, nrmse(hardware.values, reconstruction.values))
            for fraction, (reconstruction, _) in zip(fractions, reconstructions)
        ]
    return curves
