"""Synthetic stand-in for the Google Sycamore QAOA dataset.

The paper's hardware evaluation (Figs. 5-6) uses the landscapes that
Harrigan et al. (Nature Physics 2021) measured on the 53-qubit Sycamore
processor: 50 x 50 (beta, gamma) grids for MaxCut on 3-regular and mesh
("hardware grid") graphs and for the SK model.  That dataset is not
available offline, so we substitute simulated landscapes with the same
grid shape and noise character:

1. compute the exact p=1 QAOA landscape for the matching problem class
   with the fast statevector evaluator;
2. contract it toward its mean (global depolarizing effect of a deep
   hardware circuit);
3. add a smooth low-frequency drift field (calibration drift across the
   parameter sweep, generated as a truncated random DCT field);
4. add heteroscedastic shot noise and sparse salt outliers (readout
   glitches), strongest for SK, whose fully connected circuits are the
   deepest — matching the paper's observation that the SK landscape is
   the noisiest of the three.

The resulting reconstruction-error-vs-fraction behaviour mirrors
Fig. 6: errors fall steeply with sampling fraction and SK needs the
largest fraction for a given error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.qaoa import QaoaAnsatz
from ..cs.dct import idct_transform
from ..landscape.generator import LandscapeGenerator, cost_function
from ..landscape.grid import qaoa_grid
from ..landscape.landscape import Landscape
from ..problems.ising import IsingProblem
from ..problems.maxcut import mesh_maxcut, random_3_regular_maxcut
from ..problems.sk import sk_problem

__all__ = ["SycamoreConfig", "sycamore_landscape", "SYCAMORE_PROBLEMS"]

SYCAMORE_PROBLEMS = ("mesh", "3-regular", "sk")


@dataclass(frozen=True)
class SycamoreConfig:
    """Knobs of the synthetic hardware-landscape generator.

    Attributes:
        resolution: grid points per axis (the dataset is 50 x 50).
        num_qubits: problem size of the underlying ideal landscape
            (scaled down from Sycamore's 11-23 qubit instances).
        contraction: how far the signal contracts toward its mean
            (0 = no noise damping, 1 = fully flat).
        drift_amplitude: RMS of the smooth drift field, relative to the
            ideal landscape's standard deviation.
        shot_noise: white-noise sigma, relative to the ideal std.
        salt_probability: fraction of grid points hit by salt outliers.
        salt_amplitude: outlier magnitude, relative to the ideal std.
    """

    resolution: int = 50
    num_qubits: int = 10
    contraction: float = 0.55
    drift_amplitude: float = 0.25
    shot_noise: float = 0.12
    salt_probability: float = 0.01
    salt_amplitude: float = 1.5


_PROBLEM_NOISE = {
    # SK circuits are fully connected hence deepest -> noisiest.
    "mesh": dict(contraction=0.5, shot_noise=0.10, salt_probability=0.008),
    "3-regular": dict(contraction=0.55, shot_noise=0.12, salt_probability=0.01),
    "sk": dict(contraction=0.65, shot_noise=0.22, salt_probability=0.02),
}


def _problem_instance(kind: str, num_qubits: int, seed: int) -> IsingProblem:
    if kind == "mesh":
        # Nearest 2-D grid to the requested size.
        rows = max(2, int(np.sqrt(num_qubits)))
        cols = max(2, int(np.ceil(num_qubits / rows)))
        return mesh_maxcut(rows, cols)
    if kind == "3-regular":
        size = num_qubits if num_qubits % 2 == 0 else num_qubits + 1
        return random_3_regular_maxcut(size, seed=seed)
    if kind == "sk":
        return sk_problem(num_qubits, seed=seed)
    raise ValueError(f"unknown Sycamore problem kind {kind!r}; choose from {SYCAMORE_PROBLEMS}")


def _smooth_drift(shape: tuple[int, int], rng: np.random.Generator, modes: int = 4) -> np.ndarray:
    """A smooth random field from a few low-frequency DCT modes."""
    coefficients = np.zeros(shape)
    coefficients[:modes, :modes] = rng.normal(size=(modes, modes))
    coefficients[0, 0] = 0.0  # drift has no DC component
    field = idct_transform(coefficients)
    std = field.std()
    return field / std if std > 0 else field


def sycamore_landscape(
    kind: str,
    seed: int = 0,
    config: SycamoreConfig | None = None,
    workers: int = 1,
    store=None,
    daemon=None,
) -> tuple[Landscape, Landscape]:
    """Generate a (hardware-like, ideal) landscape pair.

    Args:
        kind: one of ``"mesh"``, ``"3-regular"``, ``"sk"``.
        seed: controls the problem instance and all noise draws.
        config: generator knobs; problem-specific noise defaults are
            applied on top of :class:`SycamoreConfig` defaults unless a
            custom config is supplied.
        workers: processes for sharded generation of the ideal
            landscape (``1`` = in-process).
        store: optional :class:`~repro.service.store.LandscapeStore`;
            the (exact) ideal landscape is then served from cache on
            repeated calls, leaving only the cheap noise synthesis.
        daemon: socket path, ``tcp://host:port`` target (or client) of
            a running landscape daemon; the ideal landscape is then
            served by the daemon's shared pool/cache, with in-process
            fallback.

    Returns:
        ``(hardware, ideal)`` landscapes on the same 50 x 50 grid.
    """
    if config is None:
        config = SycamoreConfig(**_PROBLEM_NOISE.get(kind, {}))
    rng = np.random.default_rng(seed + 7919 * SYCAMORE_PROBLEMS.index(kind))
    problem = _problem_instance(kind, config.num_qubits, seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(config.resolution, config.resolution))
    generator = LandscapeGenerator(
        cost_function(ansatz), grid, workers=workers, store=store, daemon=daemon
    )
    ideal = generator.grid_search(label=f"sycamore-{kind}-ideal")

    values = ideal.values
    mean = values.mean()
    std = values.std() if values.std() > 0 else 1.0
    hardware = mean + (1.0 - config.contraction) * (values - mean)
    hardware = hardware + config.drift_amplitude * std * _smooth_drift(
        values.shape, rng
    )
    hardware = hardware + rng.normal(0.0, config.shot_noise * std, size=values.shape)
    salt_mask = rng.random(values.shape) < config.salt_probability
    salt_signs = rng.choice((-1.0, 1.0), size=values.shape)
    hardware = np.where(
        salt_mask, hardware + config.salt_amplitude * std * salt_signs, hardware
    )
    noisy = Landscape(
        grid,
        hardware,
        label=f"sycamore-{kind}-hardware",
        circuit_executions=grid.size,
    )
    return noisy, ideal
