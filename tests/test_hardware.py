"""Tests for simulated QPUs, pools and latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz import QaoaAnsatz
from repro.hardware import (
    DEVICE_PROFILES,
    LatencyModel,
    QpuPool,
    SimulatedQPU,
    device_profile,
)
from repro.problems import random_3_regular_maxcut


# -- latency ---------------------------------------------------------------


def test_latency_validation():
    with pytest.raises(ValueError):
        LatencyModel(median_seconds=0.0)
    with pytest.raises(ValueError):
        LatencyModel(tail_probability=1.0)
    with pytest.raises(ValueError):
        LatencyModel(tail_alpha=0.9)


def test_latency_samples_positive():
    model = LatencyModel(median_seconds=2.0)
    rng = np.random.default_rng(0)
    draws = model.sample(1000, rng)
    assert np.all(draws > 0.0)
    assert draws.shape == (1000,)


def test_latency_heavy_tail_ratio():
    """Configured like the paper's observation: p99 >> median."""
    model = LatencyModel(tail_probability=0.05, tail_scale=10.0, tail_alpha=1.5)
    rng = np.random.default_rng(1)
    ratio = model.tail_to_median_ratio(rng)
    assert ratio > 8.0


def test_latency_no_tail_is_tight():
    model = LatencyModel(tail_probability=0.0)
    rng = np.random.default_rng(2)
    ratio = model.tail_to_median_ratio(rng)
    assert ratio < 2.0


# -- QPUs ---------------------------------------------------------------------


def test_device_profiles_exist():
    for name in ("ideal-sim", "noisy-sim-i", "noisy-sim-ii", "ibm-lagos", "ibm-perth"):
        assert name in DEVICE_PROFILES
        device_profile(name)


def test_unknown_profile_raises():
    with pytest.raises(KeyError):
        device_profile("ibm-atlantis")


def test_perth_noisier_than_lagos():
    lagos = device_profile("ibm-lagos")
    perth = device_profile("ibm-perth")
    assert perth.p2 > lagos.p2
    assert perth.readout > lagos.readout


def test_qpu_execute_ideal_matches_ansatz():
    problem = random_3_regular_maxcut(4, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    qpu = SimulatedQPU("ideal-sim", noise=device_profile("ideal-sim"))
    params = np.array([0.2, 0.4])
    (value,) = qpu.execute_batch(ansatz, params[None, :])
    assert value == pytest.approx(ansatz.expectation(params))


def test_qpu_noise_changes_result():
    problem = random_3_regular_maxcut(4, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    ideal = SimulatedQPU("ideal-sim", noise=device_profile("ideal-sim"))
    noisy = SimulatedQPU("noisy-sim-ii", noise=device_profile("noisy-sim-ii"))
    points = np.array([[0.2, 0.4]])
    (ideal_value,) = ideal.execute_batch(ansatz, points)
    (noisy_value,) = noisy.execute_batch(ansatz, points)
    assert ideal_value != noisy_value


def test_qpu_execute_batch():
    problem = random_3_regular_maxcut(4, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    qpu = SimulatedQPU("ideal-sim", noise=device_profile("ideal-sim"))
    points = np.array([[0.1, 0.2], [0.3, 0.4]])
    values = qpu.execute_batch(ansatz, points)
    assert values.shape == (2,)
    assert values[0] == pytest.approx(ansatz.expectation(points[0]))
    # With shots, one batched call draws exactly what a seeded serial
    # loop draws, and leaves the device's stream at the same position.
    noise = device_profile("noisy-sim-i")
    shot_qpu = SimulatedQPU("noisy-sim-i", noise=noise, shots=256, seed=5)
    batched = shot_qpu.execute_batch(ansatz, points)
    rng = np.random.default_rng(5)
    serial = [
        ansatz.expectation(point, noise=noise, shots=256, rng=rng)
        for point in points
    ]
    np.testing.assert_allclose(batched, serial, rtol=0.0, atol=1e-12)
    assert shot_qpu._rng.random() == rng.random()


# -- pool -----------------------------------------------------------------------


def make_pool():
    return QpuPool(
        [
            SimulatedQPU("ideal-sim", noise=device_profile("ideal-sim"), seed=0),
            SimulatedQPU("noisy-sim-i", noise=device_profile("noisy-sim-i"), seed=1),
        ]
    )


def test_pool_validation():
    with pytest.raises(ValueError):
        QpuPool([])
    with pytest.raises(ValueError):
        QpuPool([SimulatedQPU("same"), SimulatedQPU("same")])


def test_pool_by_name():
    pool = make_pool()
    assert pool.by_name("ideal-sim").name == "ideal-sim"
    with pytest.raises(KeyError):
        pool.by_name("missing")


def test_pool_split_fractions():
    pool = make_pool()
    indices = np.arange(100)
    chunks = pool.split_indices(indices, [0.3, 0.7])
    assert chunks[0].size == 30
    assert chunks[1].size == 70
    assert np.array_equal(np.sort(np.concatenate(chunks)), indices)


def test_pool_split_validation():
    pool = make_pool()
    with pytest.raises(ValueError):
        pool.split_indices(np.arange(10), [0.5])
    with pytest.raises(ValueError):
        pool.split_indices(np.arange(10), [0.5, 0.6])


def test_pool_split_handles_extreme_fractions():
    pool = make_pool()
    chunks = pool.split_indices(np.arange(10), [1.0, 0.0])
    assert chunks[0].size == 10
    assert chunks[1].size == 0
