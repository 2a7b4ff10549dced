"""Cross-module integration tests: the paper's workflows end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Adam,
    Cobyla,
    InterpolatedLandscape,
    LandscapeGenerator,
    NoiseModel,
    OscarInitializer,
    OscarReconstructor,
    QaoaAnsatz,
    QpuPool,
    SimulatedQPU,
    cost_function,
    nrmse,
    qaoa_grid,
    random_3_regular_maxcut,
    zne_cost_function,
)
from repro.landscape import landscape_variance
from repro.mitigation import ZneConfig
from repro.parallel import ParallelSampler, eager_reconstruct


def test_full_debugging_workflow_ideal():
    """Fig. 3's three phases against the ground truth."""
    problem = random_3_regular_maxcut(10, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(24, 48))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    truth = generator.grid_search()
    oscar = OscarReconstructor(grid, rng=0)
    reconstruction, report = oscar.reconstruct(generator, 0.10)
    assert nrmse(truth.values, reconstruction.values) < 0.08
    assert report.speedup > 10.0
    # The reconstruction localises the optimum to the right basin.
    _, true_argmin = truth.minimum()
    _, recon_argmin = reconstruction.minimum()
    assert np.linalg.norm(true_argmin - recon_argmin) < 0.5


def test_noisy_reconstruction_preserves_noise_effect():
    """Reconstruction of a noisy landscape matches the noisy truth, not
    the ideal one — OSCAR preserves hardware effects (Sec. 4.2.4)."""
    problem = random_3_regular_maxcut(8, seed=1)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(20, 40))
    noise = NoiseModel(p1=0.003, p2=0.007)
    noisy_generator = LandscapeGenerator(cost_function(ansatz, noise=noise), grid)
    ideal_truth = LandscapeGenerator(cost_function(ansatz), grid).grid_search()
    noisy_truth = noisy_generator.grid_search()
    oscar = OscarReconstructor(grid, rng=1)
    reconstruction, _ = oscar.reconstruct(noisy_generator, 0.12)
    assert nrmse(noisy_truth.values, reconstruction.values) < nrmse(
        ideal_truth.values, reconstruction.values
    )


def test_optimizer_on_surrogate_matches_circuit_endpoint():
    """Use case 2 (Figs. 11-12): optimizing on the interpolated
    reconstruction lands near the circuit-execution endpoint."""
    problem = random_3_regular_maxcut(8, seed=2)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(24, 48))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    oscar = OscarReconstructor(grid, rng=2)
    reconstruction, _ = oscar.reconstruct(generator, 0.10)
    surrogate = InterpolatedLandscape(reconstruction)
    start = np.array([0.1, 0.8])
    surrogate_result = Cobyla(maxiter=300).minimize(surrogate, start)
    circuit_result = Cobyla(maxiter=300).minimize(generator.evaluate_point, start)
    # Endpoints agree in cost even if parameters sit in symmetric basins.
    surrogate_cost = generator.evaluate_point(surrogate_result.parameters)
    assert surrogate_cost == pytest.approx(circuit_result.value, abs=0.15)


def test_initialization_workflow_end_to_end():
    """Use case 3 (Table 6): OSCAR initialization converges to at least
    as good a value as random initialization."""
    problem = random_3_regular_maxcut(8, seed=3)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(20, 40))
    generator = LandscapeGenerator(cost_function(ansatz), grid)
    initializer = OscarInitializer(
        OscarReconstructor(grid, rng=3), Adam(maxiter=150), sampling_fraction=0.1,
        rng=3,
    )
    outcome = initializer.choose(generator)
    refined = Adam(maxiter=150).minimize(
        generator.evaluate_point, outcome.initial_point
    )
    rng = np.random.default_rng(3)
    random_start = np.array(
        [rng.uniform(low, high) for low, high in grid.bounds]
    )
    baseline = Adam(maxiter=150).minimize(generator.evaluate_point, random_start)
    assert refined.value <= baseline.value + 0.05


def test_mitigated_landscape_through_oscar():
    """Use case 1 (Figs. 9-10): a ZNE-mitigated landscape reconstructs
    and is sharper (higher variance) than the unmitigated one."""
    problem = random_3_regular_maxcut(8, seed=4)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(16, 32))
    noise = NoiseModel(p1=0.002, p2=0.015)
    unmitigated = LandscapeGenerator(
        cost_function(ansatz, noise=noise), grid
    ).grid_search()
    mitigated_fn = zne_cost_function(ansatz, noise, ZneConfig((1.0, 3.0), "linear"))
    mitigated = LandscapeGenerator(mitigated_fn, grid).grid_search()
    assert landscape_variance(mitigated.values) > landscape_variance(
        unmitigated.values
    )
    oscar = OscarReconstructor(grid, rng=4)
    reconstruction, _ = oscar.reconstruct(
        LandscapeGenerator(mitigated_fn, grid), 0.20
    )
    assert nrmse(mitigated.values, reconstruction.values) < 0.15


def test_parallel_multi_qpu_with_eager_reconstruction():
    """Sec. 5 end to end: sample on two QPUs, compensate, reconstruct
    eagerly under a latency tail."""
    problem = random_3_regular_maxcut(8, seed=5)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(20, 40))
    pool = QpuPool(
        [
            SimulatedQPU("qpu1", noise=NoiseModel(p1=0.001, p2=0.005), seed=0),
            SimulatedQPU("qpu2", noise=NoiseModel(p1=0.003, p2=0.007), seed=1),
        ]
    )
    sampler = ParallelSampler(pool, grid, reference="qpu1")
    reconstructor = OscarReconstructor(grid, rng=5)
    indices = reconstructor.sample_indices(0.15)
    batch = sampler.run(
        ansatz, indices, fractions=[0.5, 0.5], compensate=True,
        rng=np.random.default_rng(5),
    )
    outcome = eager_reconstruct(reconstructor, batch, timeout_quantile=0.95)
    reference = LandscapeGenerator(
        cost_function(ansatz, noise=pool.by_name("qpu1").noise), grid
    ).grid_search()
    assert nrmse(reference.values, outcome.landscape.values) < 0.2
    assert outcome.samples_used > 0
