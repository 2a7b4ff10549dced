"""Tests for Zero-Noise Extrapolation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import QaoaAnsatz
from repro.mitigation import (
    ZneConfig,
    extrapolate,
    linear_extrapolate,
    richardson_extrapolate,
    zne_cost_function,
    zne_expectation,
)
from repro.problems import random_3_regular_maxcut
from repro.quantum import NoiseModel

COEFFS = st.floats(min_value=-3, max_value=3)


# -- extrapolation models ---------------------------------------------------------


@given(a=COEFFS, b=COEFFS)
def test_richardson_exact_on_lines(a, b):
    scales = np.array([1.0, 2.0])
    values = a + b * scales
    assert richardson_extrapolate(scales, values) == pytest.approx(a, abs=1e-9)


@given(a=COEFFS, b=COEFFS, c=COEFFS)
def test_richardson_exact_on_quadratics(a, b, c):
    scales = np.array([1.0, 2.0, 3.0])
    values = a + b * scales + c * scales**2
    assert richardson_extrapolate(scales, values) == pytest.approx(a, abs=1e-7)


def test_richardson_weights_for_123():
    """The {1,2,3} estimator is 3 y1 - 3 y2 + y3."""
    scales = np.array([1.0, 2.0, 3.0])
    for i, expected in enumerate((3.0, -3.0, 1.0)):
        values = np.zeros(3)
        values[i] = 1.0
        assert richardson_extrapolate(scales, values) == pytest.approx(expected)


def test_richardson_validation():
    with pytest.raises(ValueError):
        richardson_extrapolate(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        richardson_extrapolate(np.array([1.0, 1.0]), np.array([1.0, 2.0]))


@given(a=COEFFS, b=COEFFS)
def test_linear_exact_on_lines(a, b):
    scales = np.array([1.0, 3.0])
    values = a + b * scales
    assert linear_extrapolate(scales, values) == pytest.approx(a, abs=1e-9)


def test_linear_least_squares_on_noisy_line():
    rng = np.random.default_rng(0)
    scales = np.array([1.0, 2.0, 3.0, 4.0])
    values = 2.0 - 0.5 * scales + rng.normal(0, 1e-3, size=4)
    assert linear_extrapolate(scales, values) == pytest.approx(2.0, abs=0.01)


def test_extrapolate_dispatch_and_validation():
    scales = [1.0, 2.0]
    values = [1.0, 0.5]
    assert extrapolate("linear", scales, values) == linear_extrapolate(
        np.array(scales), np.array(values)
    )
    with pytest.raises(ValueError):
        extrapolate("cubic-spline", scales, values)


# -- ZneConfig -----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ZneConfig(scale_factors=(1.0,))
    with pytest.raises(ValueError):
        ZneConfig(scale_factors=(0.5, 1.0))
    with pytest.raises(ValueError):
        ZneConfig(method="quartic")


def _noise_amplification(config: ZneConfig) -> float:
    """L2 norm of the extrapolation weights: the factor by which
    independent per-scale shot noise grows in the mitigated value.
    Both methods are linear in the values, so the weights are the
    extrapolations of the unit vectors."""
    scales = config.scale_factors
    weights = [extrapolate(config.method, scales, unit) for unit in np.eye(len(scales))]
    return float(np.linalg.norm(weights))


def test_richardson_noise_amplification_sqrt19():
    config = ZneConfig(scale_factors=(1.0, 2.0, 3.0), method="richardson")
    assert _noise_amplification(config) == pytest.approx(np.sqrt(19.0))


def test_linear_noise_amplification_smaller_than_richardson():
    richardson = ZneConfig((1.0, 2.0, 3.0), "richardson")
    linear = ZneConfig((1.0, 3.0), "linear")
    assert _noise_amplification(linear) < _noise_amplification(richardson)


# -- end-to-end ZNE ---------------------------------------------------------------------


def test_zne_recovers_ideal_expectation():
    """On the analytic depolarizing model, ZNE must land much closer to
    the ideal value than the unmitigated noisy estimate."""
    problem = random_3_regular_maxcut(6, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.25, -0.55])
    noise = NoiseModel(p1=0.002, p2=0.008)
    ideal = ansatz.expectation(params)
    noisy = ansatz.expectation(params, noise=noise)
    mitigated = zne_expectation(
        ansatz, params, noise, ZneConfig((1.0, 2.0, 3.0), "richardson")
    )
    assert abs(mitigated - ideal) < abs(noisy - ideal) / 3


def test_zne_linear_also_improves():
    problem = random_3_regular_maxcut(6, seed=1)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.3, 0.6])
    noise = NoiseModel(p1=0.001, p2=0.005)
    ideal = ansatz.expectation(params)
    noisy = ansatz.expectation(params, noise=noise)
    mitigated = zne_expectation(ansatz, params, noise, ZneConfig((1.0, 3.0), "linear"))
    assert abs(mitigated - ideal) < abs(noisy - ideal)


def test_richardson_amplifies_shot_noise_vs_linear():
    """The Fig. 9 mechanism: with shot noise, Richardson estimates have
    larger variance than linear ones."""
    problem = random_3_regular_maxcut(6, seed=2)
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([0.2, 0.4])
    noise = NoiseModel(p1=0.001, p2=0.02)
    rng = np.random.default_rng(5)
    richardson_samples = [
        zne_expectation(ansatz, params, noise,
                        ZneConfig((1.0, 2.0, 3.0), "richardson"), shots=256, rng=rng)
        for _ in range(30)
    ]
    linear_samples = [
        zne_expectation(ansatz, params, noise,
                        ZneConfig((1.0, 3.0), "linear"), shots=256, rng=rng)
        for _ in range(30)
    ]
    assert np.std(richardson_samples) > np.std(linear_samples)


def test_zne_cost_function_is_plain_callable():
    problem = random_3_regular_maxcut(4, seed=3)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.001, p2=0.01)
    function = zne_cost_function(ansatz, noise)
    value = function(np.array([0.1, 0.2]))
    assert np.isfinite(value)


def test_zne_many_simulates_each_point_once_on_the_qaoa_fast_path():
    """The analytic-contraction fast path reuses the scale-independent
    ideal state: one ``statevector_many`` pass over the points, instead
    of one per (point, scale) via the folded batch."""
    problem = random_3_regular_maxcut(4, seed=3)
    ansatz = QaoaAnsatz(problem, p=1)
    noise = NoiseModel(p1=0.001, p2=0.01)
    config = ZneConfig((1.0, 2.0, 3.0), "richardson")
    function = zne_cost_function(ansatz, noise, config)
    points = np.random.default_rng(0).uniform(-np.pi, np.pi, (9, 2))

    simulated_rows = []
    original = QaoaAnsatz.statevector_many

    def counting(self, batch):
        state = original(self, batch)
        simulated_rows.append(np.asarray(batch).shape[0])
        return state

    QaoaAnsatz.statevector_many = counting
    try:
        mitigated = function.many(points)
    finally:
        QaoaAnsatz.statevector_many = original
    assert sum(simulated_rows) == points.shape[0], (
        "fast path must simulate each point exactly once, not once per "
        "noise scale"
    )
    # And it must agree with the serial per-(point, scale) loop.
    serial = np.array([function(point) for point in points])
    np.testing.assert_allclose(mitigated, serial, rtol=0.0, atol=1e-10)


def test_zne_many_matches_folded_path_for_non_qaoa_ansatzes():
    """Ansatzes without the scale-reuse hook still take the generic
    fold and stay pinned to the serial loop."""
    from repro.ansatz import TwoLocalAnsatz
    from repro.problems import sk_problem

    ansatz = TwoLocalAnsatz(sk_problem(3, seed=1).to_pauli_sum(), reps=1)
    assert not hasattr(ansatz, "expectation_many_scaled")
    noise = NoiseModel(p1=0.002, p2=0.004)
    function = zne_cost_function(ansatz, noise, ZneConfig((1.0, 3.0), "linear"))
    points = np.random.default_rng(2).uniform(-np.pi, np.pi, (4, 6))
    serial = np.array([function(point) for point in points])
    np.testing.assert_allclose(function.many(points), serial, rtol=0.0, atol=1e-10)
