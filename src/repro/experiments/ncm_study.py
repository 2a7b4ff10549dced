"""Runners for the NCM experiments: Fig. 8 and Table 5.

Fig. 8 sweeps the share of samples coming from the reference device
(QPU-1) and reports NRMSE of the mixed-source reconstruction against
QPU-1's true landscape, with and without noise compensation.

Table 5 repeats the protocol for named device pairs (simulated IBM
Lagos/Perth profiles, ideal/noisy simulation) at the paper's four
splits (20/80, 50/50, 80/20, 100/0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.qaoa import QaoaAnsatz
from ..hardware.qpu import QpuPool, SimulatedQPU, device_profile
from ..landscape.generator import LandscapeGenerator, cost_function
from ..landscape.grid import qaoa_grid
from ..landscape.metrics import nrmse
from ..landscape.reconstructor import OscarReconstructor
from ..parallel.scheduler import ParallelSampler
from ..problems.maxcut import random_3_regular_maxcut
from ..quantum.noise import NoiseModel
from .configs import NCM_QPU1, NCM_QPU2, NCM_TRAINING_FRACTION

__all__ = ["NcmSweepPoint", "run_fig8_sweep", "Table5Row", "run_table5"]


@dataclass(frozen=True)
class NcmSweepPoint:
    """One cell of the Fig. 8 sweep."""

    num_qubits: int
    qpu1_share: float
    nrmse_uncompensated: float
    nrmse_compensated: float


def _mixed_reconstruction_error(
    num_qubits: int,
    qpu1_share: float,
    qpu1_noise: NoiseModel,
    qpu2_noise: NoiseModel,
    resolution: tuple[int, int],
    total_fraction: float,
    seed: int,
) -> tuple[float, float]:
    """NRMSE (uncompensated, compensated) for one device pair/split."""
    problem = random_3_regular_maxcut(num_qubits, seed=seed)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=resolution)

    # QPU-1's true landscape is the reference (exact noisy expectation).
    reference_generator = LandscapeGenerator(
        cost_function(ansatz, noise=qpu1_noise), grid
    )
    reference = reference_generator.grid_search(label="qpu1-truth")

    pool = QpuPool(
        [
            SimulatedQPU("qpu1", noise=qpu1_noise, seed=seed),
            SimulatedQPU("qpu2", noise=qpu2_noise, seed=seed + 1),
        ]
    )
    sampler = ParallelSampler(pool, grid, reference="qpu1")
    reconstructor = OscarReconstructor(grid, rng=seed + 2)
    indices = reconstructor.sample_indices(total_fraction)
    rng = np.random.default_rng(seed + 3)
    fractions = [qpu1_share, 1.0 - qpu1_share]

    sample_sets = []
    for compensate in (False, True):
        batch = sampler.run(
            ansatz,
            indices,
            fractions=fractions,
            compensate=compensate,
            ncm_training_fraction=NCM_TRAINING_FRACTION,
            rng=rng,
        )
        sample_sets.append((batch.flat_indices, batch.values))
    reconstructions = reconstructor.reconstruct_many(sample_sets)
    errors = [
        nrmse(reference.values, reconstruction.values)
        for reconstruction, _ in reconstructions
    ]
    return errors[0], errors[1]


def run_fig8_sweep(
    qubit_counts: tuple[int, ...] = (8, 10, 12),
    qpu1_shares: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    resolution: tuple[int, int] = (30, 60),
    total_fraction: float = 0.10,
    seed: int = 0,
) -> list[NcmSweepPoint]:
    """Fig. 8: NRMSE vs QPU-1 sample share, +/- compensation.

    Defaults mirror the paper: 10% total samples, 1% NCM training,
    QPU-1 at (0.1%, 0.5%) and QPU-2 at (0.3%, 0.7%) gate errors.
    """
    points = []
    for num_qubits in qubit_counts:
        for share in qpu1_shares:
            uncompensated, compensated = _mixed_reconstruction_error(
                num_qubits,
                share,
                NCM_QPU1,
                NCM_QPU2,
                resolution,
                total_fraction,
                seed,
            )
            points.append(
                NcmSweepPoint(
                    num_qubits=num_qubits,
                    qpu1_share=share,
                    nrmse_uncompensated=uncompensated,
                    nrmse_compensated=compensated,
                )
            )
    return points


@dataclass(frozen=True)
class Table5Row:
    """One device-pair row of Table 5."""

    qpu1: str
    qpu2: str
    split_errors: dict[float, tuple[float, float]]
    """``{qpu1_share: (oscar, oscar+ncm)}`` for the paper's splits."""
    qpu1_only_error: float
    """The 100%-0% column (no mixing, no NCM needed)."""


def run_table5(
    pairs: tuple[tuple[str, str], ...] = (
        ("noisy-sim-i", "noisy-sim-ii"),
        ("noisy-sim-ii", "noisy-sim-i"),
        ("ibm-perth", "ideal-sim"),
        ("ibm-perth", "noisy-sim-ii"),
        ("ibm-perth", "ibm-lagos"),
        ("ibm-lagos", "ibm-perth"),
        ("ideal-sim", "ibm-perth"),
    ),
    num_qubits: int = 6,
    resolution: tuple[int, int] = (20, 40),
    splits: tuple[float, ...] = (0.2, 0.5, 0.8),
    total_fraction: float = 0.10,
    shots: int | None = 2048,
    seed: int = 0,
) -> list[Table5Row]:
    """Table 5: device/simulator source combinations, +/- NCM.

    Uses named device profiles; shot noise is applied on the "hardware"
    devices (profiles with a readout entry) to mimic real sampling.
    The NCM trains on 4% of the grid: with shot noise on both devices
    the regression needs a few dozen pairs to average the measurement
    noise out (the paper trains on 1% of a 5k grid = 50 pairs; 4% of
    our scaled 800-point grid = 32 pairs).
    """
    rows = []
    for pair_index, (name1, name2) in enumerate(pairs):
        problem = random_3_regular_maxcut(num_qubits, seed=seed)
        ansatz = QaoaAnsatz(problem, p=1)
        grid = qaoa_grid(p=1, resolution=resolution)
        noise1 = device_profile(name1)
        noise2 = device_profile(name2)

        def shots_for(profile_name: str) -> int | None:
            return shots if profile_name.startswith("ibm") else None

        reference_generator = LandscapeGenerator(
            cost_function(ansatz, noise=noise1), grid
        )
        reference = reference_generator.grid_search()

        pool = QpuPool(
            [
                SimulatedQPU(
                    "qpu1", noise=noise1, shots=shots_for(name1), seed=seed + pair_index
                ),
                SimulatedQPU(
                    "qpu2",
                    noise=noise2,
                    shots=shots_for(name2),
                    seed=seed + pair_index + 100,
                ),
            ]
        )
        sampler = ParallelSampler(pool, grid, reference="qpu1")
        reconstructor = OscarReconstructor(grid, rng=seed + pair_index)
        indices = reconstructor.sample_indices(total_fraction)
        rng = np.random.default_rng(seed + pair_index + 5)

        # Gather every split's batches first (sampler RNG order matches
        # the old serial loop), then reconstruct all 2*len(splits)+1
        # landscapes of this device pair in one engine pass.
        sample_sets = []
        for share in splits:
            for compensate in (False, True):
                batch = sampler.run(
                    ansatz,
                    indices,
                    fractions=[share, 1.0 - share],
                    compensate=compensate,
                    ncm_training_fraction=0.04,
                    rng=rng,
                )
                sample_sets.append((batch.flat_indices, batch.values))
        only_batch = sampler.run(ansatz, indices, fractions=[1.0, 0.0], rng=rng)
        sample_sets.append((only_batch.flat_indices, only_batch.values))
        reconstructions = reconstructor.reconstruct_many(sample_sets)
        errors = [
            nrmse(reference.values, reconstruction.values)
            for reconstruction, _ in reconstructions
        ]

        split_errors: dict[float, tuple[float, float]] = {
            share: (errors[2 * position], errors[2 * position + 1])
            for position, share in enumerate(splits)
        }
        rows.append(
            Table5Row(
                qpu1=name1,
                qpu2=name2,
                split_errors=split_errors,
                qpu1_only_error=errors[-1],
            )
        )
    return rows
