"""Tests for the optimizer suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimizers import (
    Adam,
    Cobyla,
    CountingObjective,
    GradientDescent,
    NelderMead,
    Spsa,
    finite_difference_gradient,
)


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def objective(x):
        return float(np.sum((np.asarray(x) - center) ** 2))

    return objective


ALL_OPTIMIZERS = [
    Adam(maxiter=400, learning_rate=0.1),
    GradientDescent(maxiter=400, learning_rate=0.2),
    Cobyla(maxiter=500),
    NelderMead(maxiter=500),
    Spsa(maxiter=800, a=0.3, rng=0),
]


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS, ids=lambda o: o.name)
def test_converges_on_quadratic(optimizer):
    center = np.array([0.7, -0.4])
    result = optimizer.minimize(quadratic(center), np.array([0.0, 0.0]))
    assert np.linalg.norm(result.parameters - center) < 0.15
    assert result.value < 0.05


@pytest.mark.parametrize("optimizer", ALL_OPTIMIZERS, ids=lambda o: o.name)
def test_result_bookkeeping(optimizer):
    result = optimizer.minimize(quadratic([0.2, 0.1]), np.array([1.0, 1.0]))
    assert result.num_queries > 0
    assert result.path.shape[1] == 2
    assert result.path.shape[0] >= 2
    assert np.allclose(result.path[0], [1.0, 1.0])
    assert result.label == optimizer.name


def test_counting_objective_tracks_everything():
    counting = CountingObjective(quadratic([0.0]))
    counting(np.array([1.0]))
    counting(np.array([2.0]))
    assert counting.num_queries == 2
    points, values = zip(*counting.evaluations)
    assert np.allclose(points, [[1.0], [2.0]])
    assert values == pytest.approx((1.0, 4.0))


def test_finite_difference_gradient_accuracy():
    gradient = finite_difference_gradient(
        quadratic([1.0, -2.0]), np.array([2.0, 0.0]), step=1e-5
    )
    assert np.allclose(gradient, [2.0, 4.0], atol=1e-5)


def test_adam_tolerance_early_stop():
    """Starting at the optimum, ADAM stops almost immediately."""
    objective = quadratic([0.0, 0.0])
    result = Adam(maxiter=500, learning_rate=0.05).minimize(
        objective, np.array([0.0, 0.0])
    )
    assert result.converged
    assert result.path.shape[0] < 20


def test_adam_fewer_queries_when_started_near_optimum():
    """The Table 6 mechanism at unit scale."""
    objective = quadratic([0.3, 0.3])
    far = Adam(maxiter=500).minimize(objective, np.array([3.0, -3.0]))
    near = Adam(maxiter=500).minimize(objective, np.array([0.31, 0.30]))
    assert near.num_queries < far.num_queries


def test_adam_custom_gradient_skips_fd_queries():
    objective = quadratic([0.0, 0.0])

    def gradient(x):
        return 2.0 * np.asarray(x)

    result = Adam(maxiter=50, gradient=gradient).minimize(
        objective, np.array([1.0, 1.0])
    )
    # Only the final evaluation hits the objective.
    assert result.num_queries == 1


def test_adam_maxiter_validation():
    with pytest.raises(ValueError):
        Adam(maxiter=0)


def test_spsa_reproducible_with_seed():
    a = Spsa(maxiter=100, rng=42).minimize(quadratic([0.5]), np.array([0.0]))
    b = Spsa(maxiter=100, rng=42).minimize(quadratic([0.5]), np.array([0.0]))
    assert np.allclose(a.parameters, b.parameters)


def test_spsa_two_queries_per_iteration():
    result = Spsa(maxiter=50, tolerance=0.0, rng=0).minimize(
        quadratic([0.0, 0.0, 0.0, 0.0]), np.zeros(4) + 1.0
    )
    # 2 per step + 1 final, independent of dimension.
    assert result.num_queries == 101


def test_cobyla_query_count_matches_scipy_nfev():
    counting_runs = []
    for _ in range(2):
        result = Cobyla(maxiter=100).minimize(quadratic([1.0, 2.0]), np.zeros(2))
        counting_runs.append(result.num_queries)
    assert counting_runs[0] == counting_runs[1]  # deterministic


def test_empty_initial_point_rejected():
    with pytest.raises(ValueError):
        Adam().minimize(quadratic([0.0]), np.array([]))


def test_gradient_free_handles_jagged_objective():
    """COBYLA tolerates salt noise that defeats finite differences —
    the Fig. 13 phenomenon in miniature."""
    rng = np.random.default_rng(0)
    salt = {}

    def jagged(x):
        key = tuple(np.round(np.asarray(x), 6))
        if key not in salt:
            salt[key] = 0.3 * rng.standard_normal()
        return float(np.sum(np.asarray(x) ** 2)) + salt[key]

    result = Cobyla(maxiter=300, rhobeg=0.5).minimize(jagged, np.array([2.0, 2.0]))
    assert np.linalg.norm(result.parameters) < 1.2
