"""Tests for parallel sampling, the NCM, and eager reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz
from repro.hardware import LatencyModel, QpuPool, SimulatedQPU
from repro.landscape import (
    LandscapeGenerator,
    OscarReconstructor,
    cost_function,
    nrmse,
    qaoa_grid,
)
from repro.parallel import (
    NoiseCompensationModel,
    ParallelSampler,
    SampleBatch,
    eager_reconstruct,
)
from repro.problems import random_3_regular_maxcut
from repro.quantum import NoiseModel


# -- NCM ------------------------------------------------------------------------


def test_ncm_recovers_affine_map_exactly():
    rng = np.random.default_rng(0)
    source = rng.normal(size=100)
    target = 0.8 * source + 0.3
    model = NoiseCompensationModel().train(source, target)
    assert np.allclose(model.transform(source), target, atol=1e-10)
    a, b = model.coefficients
    assert a == pytest.approx(0.8)
    assert b == pytest.approx(0.3)


def test_ncm_quadratic_option():
    rng = np.random.default_rng(1)
    source = rng.normal(size=200)
    target = 0.2 * source**2 - 0.5 * source + 1.0
    model = NoiseCompensationModel(degree=2).train(source, target)
    assert model.training_residual(source, target) < 1e-10


def test_ncm_degree_validation():
    with pytest.raises(ValueError):
        NoiseCompensationModel(degree=0)


def test_ncm_requires_training_before_use():
    model = NoiseCompensationModel()
    with pytest.raises(RuntimeError):
        model.transform(np.array([1.0]))
    with pytest.raises(RuntimeError):
        model.coefficients


def test_ncm_training_set_validation():
    model = NoiseCompensationModel()
    with pytest.raises(ValueError):
        model.train(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        model.train(np.ones(1), np.ones(1))


def test_ncm_degenerate_constant_source():
    model = NoiseCompensationModel().train(np.full(10, 2.0), np.full(10, 5.0))
    assert np.allclose(model.transform(np.array([2.0, 9.0])), 5.0)


def test_ncm_depolarizing_landscapes_are_affine_related():
    """The physics justification: two devices' QAOA landscapes differ by
    an affine map under global depolarizing noise, so a linear NCM fits
    almost perfectly."""
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(10, 20))
    noise1 = NoiseModel(p1=0.001, p2=0.005)
    noise2 = NoiseModel(p1=0.003, p2=0.007)
    land1 = LandscapeGenerator(cost_function(ansatz, noise=noise1), grid).grid_search()
    land2 = LandscapeGenerator(cost_function(ansatz, noise=noise2), grid).grid_search()
    model = NoiseCompensationModel().train(land2.flat(), land1.flat())
    assert model.training_residual(land2.flat(), land1.flat()) < 1e-6


# -- parallel sampler ----------------------------------------------------------------


@pytest.fixture
def two_qpu_setup():
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(16, 32))
    pool = QpuPool(
        [
            SimulatedQPU("qpu1", noise=NoiseModel(p1=0.001, p2=0.005), seed=0),
            SimulatedQPU("qpu2", noise=NoiseModel(p1=0.003, p2=0.007), seed=1),
        ]
    )
    return ansatz, grid, pool


def test_sampler_distributes_all_indices(two_qpu_setup):
    ansatz, grid, pool = two_qpu_setup
    sampler = ParallelSampler(pool, grid)
    indices = np.arange(0, grid.size, 5)
    batch = sampler.run(ansatz, indices, fractions=[0.5, 0.5])
    assert batch.flat_indices.size == indices.size
    assert np.array_equal(np.sort(batch.flat_indices), indices)
    assert set(np.unique(batch.device_of_sample)) == {0, 1}
    assert batch.latencies.shape == batch.values.shape


def test_sampler_refuses_fractional_indices(two_qpu_setup):
    """The multi-QPU path runs the library's index check before any QPU
    executes: ``[1.5, 2.9]`` is refused, not sampled as points 1 and 2."""
    ansatz, grid, pool = two_qpu_setup
    with pytest.raises(ValueError, match="integers"):
        ParallelSampler(pool, grid).run(ansatz, [1.5, 2.9])


def test_sampler_compensation_improves_reference_match(two_qpu_setup):
    ansatz, grid, pool = two_qpu_setup
    sampler = ParallelSampler(pool, grid, reference="qpu1")
    reference = LandscapeGenerator(
        cost_function(ansatz, noise=pool.by_name("qpu1").noise), grid
    ).grid_search()
    reconstructor = OscarReconstructor(grid, rng=0)
    indices = reconstructor.sample_indices(0.15)
    rng = np.random.default_rng(0)
    raw = sampler.run(ansatz, indices, fractions=[0.2, 0.8], rng=rng)
    compensated = sampler.run(
        ansatz, indices, fractions=[0.2, 0.8], compensate=True, rng=rng
    )
    land_raw, _ = reconstructor.reconstruct_from_samples(raw.flat_indices, raw.values)
    land_comp, _ = reconstructor.reconstruct_from_samples(
        compensated.flat_indices, compensated.values
    )
    assert nrmse(reference.values, land_comp.values) < nrmse(
        reference.values, land_raw.values
    )
    assert compensated.ncm_training_pairs > 0


def test_sampler_default_even_split(two_qpu_setup):
    ansatz, grid, pool = two_qpu_setup
    sampler = ParallelSampler(pool, grid)
    indices = np.arange(40)
    batch = sampler.run(ansatz, indices)
    counts = np.bincount(batch.device_of_sample, minlength=2)
    assert counts[0] == 20
    assert counts[1] == 20
    assert batch.training_latencies.size == 0  # no NCM -> no training jobs


def test_sampler_accounts_training_latencies(two_qpu_setup):
    """Regression: NCM training executions are real jobs in the batch;
    they must appear in the latency bookkeeping and the makespan."""
    ansatz, grid, pool = two_qpu_setup
    sampler = ParallelSampler(pool, grid, reference="qpu1")
    indices = np.arange(0, grid.size, 4)
    batch = sampler.run(
        ansatz,
        indices,
        fractions=[0.5, 0.5],
        compensate=True,
        ncm_training_fraction=0.02,
        rng=np.random.default_rng(0),
    )
    training_count = max(2, int(round(0.02 * grid.size)))
    # Reference trains once, the one secondary device trains once.
    assert batch.training_latencies.size == 2 * training_count
    assert batch.ncm_training_pairs == training_count
    assert batch.makespan >= float(np.max(batch.training_latencies))
    # completed_before drops production stragglers but must retain the
    # training jobs — the kept values causally depend on them.
    kept = batch.completed_before(np.median(batch.latencies))
    assert kept.flat_indices.size < batch.flat_indices.size
    assert np.array_equal(kept.training_latencies, batch.training_latencies)
    assert kept.makespan >= float(np.max(batch.training_latencies))


# -- batch / eager ----------------------------------------------------------------------


def make_batch(latencies):
    n = len(latencies)
    return SampleBatch(
        flat_indices=np.arange(n),
        values=np.linspace(0, 1, n),
        latencies=np.asarray(latencies, dtype=float),
        device_of_sample=np.zeros(n, dtype=int),
    )


def test_batch_makespan_and_filter():
    batch = make_batch([1.0, 2.0, 50.0])
    assert batch.makespan == 50.0
    kept = batch.completed_before(10.0)
    assert kept.flat_indices.size == 2


def test_eager_drops_stragglers(two_qpu_setup):
    ansatz, grid, pool = two_qpu_setup
    heavy_tail = LatencyModel(tail_probability=0.2, tail_scale=20.0)
    for qpu in pool:
        qpu.latency = heavy_tail
    sampler = ParallelSampler(pool, grid)
    reconstructor = OscarReconstructor(grid, rng=1)
    indices = reconstructor.sample_indices(0.2)
    batch = sampler.run(ansatz, indices)
    outcome = eager_reconstruct(reconstructor, batch, timeout_quantile=0.9)
    assert outcome.samples_dropped > 0
    assert outcome.samples_used + outcome.samples_dropped == indices.size
    assert outcome.time_saved_fraction > 0.3
    assert outcome.landscape.values.shape == grid.shape


def test_eager_savings_use_surviving_makespan():
    """Regression: the eager batch completes at the slowest *surviving*
    job, not at the timeout — savings must be computed from that."""
    reconstructor = OscarReconstructor(qaoa_grid(p=1, resolution=(4, 6)))
    rng = np.random.default_rng(0)
    n = 20
    latencies = np.concatenate([np.linspace(1.0, 7.0, n - 1), [100.0]])
    batch = SampleBatch(
        flat_indices=np.arange(n),
        values=rng.normal(size=n),
        latencies=latencies,
        device_of_sample=np.zeros(n, dtype=int),
    )
    outcome = eager_reconstruct(reconstructor, batch, timeout_quantile=0.96)
    # The quantile timeout sits between 7 and 100; the survivors all
    # finished by 7.0, so that is the eager makespan.
    assert outcome.eager_makespan == pytest.approx(7.0)
    assert outcome.eager_makespan <= outcome.timeout_seconds
    assert outcome.time_saved_fraction == pytest.approx(1.0 - 7.0 / 100.0)


def test_eager_waits_for_ncm_training_jobs():
    """When compensation ran, the surviving values embed the training
    outputs — eager cannot complete before the slowest training job."""
    reconstructor = OscarReconstructor(qaoa_grid(p=1, resolution=(4, 6)))
    rng = np.random.default_rng(1)
    n = 20
    latencies = np.concatenate([np.linspace(1.0, 7.0, n - 1), [100.0]])
    batch = SampleBatch(
        flat_indices=np.arange(n),
        values=rng.normal(size=n),
        latencies=latencies,
        device_of_sample=np.zeros(n, dtype=int),
        ncm_training_pairs=3,
        training_latencies=np.array([2.0, 30.0, 4.0]),
    )
    outcome = eager_reconstruct(reconstructor, batch, timeout_quantile=0.96)
    assert outcome.eager_makespan == pytest.approx(30.0)
    assert outcome.full_makespan == pytest.approx(100.0)
    assert outcome.time_saved_fraction == pytest.approx(1.0 - 30.0 / 100.0)


def test_eager_quality_degrades_gracefully(two_qpu_setup):
    """Dropping the latency tail must not blow up reconstruction error."""
    ansatz, grid, pool = two_qpu_setup
    sampler = ParallelSampler(pool, grid)
    truth = LandscapeGenerator(
        cost_function(ansatz, noise=pool.by_name("qpu1").noise), grid
    ).grid_search()
    reconstructor = OscarReconstructor(grid, rng=2)
    indices = reconstructor.sample_indices(0.25)
    batch = sampler.run(ansatz, indices, fractions=[1.0, 0.0])
    full, _ = reconstructor.reconstruct_from_samples(batch.flat_indices, batch.values)
    eager = eager_reconstruct(reconstructor, batch, timeout_quantile=0.9)
    error_full = nrmse(truth.values, full.values)
    error_eager = nrmse(truth.values, eager.landscape.values)
    assert error_eager < error_full + 0.15


def test_eager_validation():
    reconstructor = OscarReconstructor(qaoa_grid(p=1, resolution=(4, 6)))
    batch = make_batch([1.0, 2.0])
    with pytest.raises(ValueError):
        eager_reconstruct(reconstructor, batch, timeout_quantile=0.0)
    empty = SampleBatch(
        np.empty(0, int), np.empty(0), np.empty(0), np.empty(0, int)
    )
    with pytest.raises(ValueError):
        eager_reconstruct(reconstructor, empty)
