"""Runners for the noise-mitigation use case: Figs. 9 and 10.

The study compares QAOA landscapes produced by unmitigated noisy
execution, Richardson-extrapolated ZNE and linear-extrapolated ZNE —
both the original (dense grid) landscapes and their OSCAR
reconstructions — and checks that the reconstruction preserves the
three landscape metrics (D2 roughness, VoG flatness, variance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.qaoa import QaoaAnsatz
from ..landscape.generator import LandscapeGenerator, cost_function
from ..landscape.grid import qaoa_grid
from ..landscape.landscape import Landscape
from ..landscape.metrics import (
    landscape_variance,
    nrmse,
    second_derivative,
    variance_of_gradient,
)
from ..landscape.reconstructor import OscarReconstructor, sample_and_evaluate
from ..mitigation.zne import ZneConfig, zne_cost_function
from ..problems.maxcut import random_3_regular_maxcut
from .configs import FIG9_NOISE

__all__ = ["MitigationLandscapes", "MetricsRow", "run_mitigation_study"]

RICHARDSON = ZneConfig(scale_factors=(1.0, 2.0, 3.0), method="richardson")
LINEAR = ZneConfig(scale_factors=(1.0, 3.0), method="linear")


@dataclass
class MitigationLandscapes:
    """Original and reconstructed landscapes per mitigation setting."""

    original: dict[str, Landscape]
    reconstructed: dict[str, Landscape]
    reconstruction_nrmse: dict[str, float]


@dataclass(frozen=True)
class MetricsRow:
    """Fig. 10 metrics for one (setting, original/reconstructed) cell."""

    setting: str
    source: str
    second_derivative: float
    variance_of_gradient: float
    variance: float


def run_mitigation_study(
    num_qubits: int = 10,
    resolution: tuple[int, int] = (20, 40),
    shots: int = 1024,
    sampling_fraction: float = 0.15,
    seed: int = 0,
) -> tuple[MitigationLandscapes, list[MetricsRow]]:
    """Generate the Fig. 9 landscapes and the Fig. 10 metric table.

    Every setting runs under Fig. 9's noise (``FIG9_NOISE``).  The
    Richardson configuration uses scales {1,2,3} and the linear one
    {1,3}, exactly as in the paper.  ``shots`` drives the statistical
    noise that Richardson amplifies into "salt".  The ZNE cost
    functions fold their noise scales into the batch axis (one batched
    call per chunk covering all scale factors), so the mitigated
    landscapes ride the same vectorized backend as the unmitigated one,
    in cache-capped chunks that account for the fold.
    """
    problem = random_3_regular_maxcut(num_qubits, seed=seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=resolution)
    rng = np.random.default_rng(seed)

    functions = {
        "unmitigated": cost_function(ansatz, noise=FIG9_NOISE, shots=shots, rng=rng),
        "richardson": zne_cost_function(
            ansatz, FIG9_NOISE, RICHARDSON, shots=shots, rng=rng
        ),
        "linear": zne_cost_function(ansatz, FIG9_NOISE, LINEAR, shots=shots, rng=rng),
    }

    original: dict[str, Landscape] = {}
    reconstructed: dict[str, Landscape] = {}
    errors: dict[str, float] = {}
    sample_sets = []
    settings = list(functions)
    for position, (setting, function) in enumerate(functions.items()):
        generator = LandscapeGenerator(function, grid)
        truth = generator.grid_search(label=f"{setting}-original")
        # Stable per-setting seed (str hash is randomized per process).
        reconstructor = OscarReconstructor(grid, rng=seed + 101 * (position + 1))
        # Sample from a fresh draw of the *same stochastic process*
        # (new shot noise per query), like re-running hardware.
        sample_sets.append(
            sample_and_evaluate(generator, reconstructor, sampling_fraction)
        )
        original[setting] = truth
    # One batched engine pass reconstructs all three settings at once.
    reconstructions = OscarReconstructor(grid).reconstruct_many(
        sample_sets, labels=[f"{setting}-recon" for setting in settings]
    )
    for setting, (reconstruction, _) in zip(settings, reconstructions):
        reconstructed[setting] = reconstruction
        errors[setting] = nrmse(original[setting].values, reconstruction.values)

    rows = []
    for setting in functions:
        for source, landscape in (
            ("original", original[setting]),
            ("reconstructed", reconstructed[setting]),
        ):
            rows.append(
                MetricsRow(
                    setting=setting,
                    source=source,
                    second_derivative=second_derivative(landscape.values),
                    variance_of_gradient=variance_of_gradient(landscape.values),
                    variance=landscape_variance(landscape.values),
                )
            )
    return (
        MitigationLandscapes(
            original=original, reconstructed=reconstructed, reconstruction_nrmse=errors
        ),
        rows,
    )
