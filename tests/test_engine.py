"""Tests for the batched reconstruction engine and the solver table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cs import (
    ReconstructionConfig,
    ReconstructionEngine,
    available_solvers,
    idct_transform,
    reconstruct_signal,
)
from repro.landscape import (
    LandscapeGenerator,
    OscarReconstructor,
    cost_function,
    qaoa_grid,
)


def planted_problems(shape, batch, seed, fraction=0.12, sparsity=8):
    """A stack of planted sparse-DCT problems over one grid shape."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    problems = []
    signals = []
    for _ in range(batch):
        coefficients = np.zeros(size)
        support = rng.choice(size, size=sparsity, replace=False)
        coefficients[support] = 4.0 * rng.normal(size=sparsity)
        signal = idct_transform(coefficients.reshape(shape))
        indices = np.sort(
            rng.choice(size, size=max(8, int(fraction * size)), replace=False)
        )
        problems.append((indices, signal.reshape(-1)[indices]))
        signals.append(signal)
    return problems, signals


# -- batched vs serial equivalence ---------------------------------------------


@pytest.mark.parametrize("basis", ["dct", "dst"])
def test_batched_matches_serial(basis):
    """A stack of 8 landscapes must reproduce the serial path exactly:
    same signals (allclose), same iteration counts, same flags."""
    shape = (20, 40)
    config = ReconstructionConfig(basis=basis, max_iterations=300)
    problems, _ = planted_problems(shape, batch=8, seed=0)
    serial = [
        reconstruct_signal(shape, indices, values, config)
        for indices, values in problems
    ]
    batched = ReconstructionEngine(shape, config).solve(problems)
    for (s_signal, s_result), (b_signal, b_result) in zip(serial, batched):
        assert np.allclose(s_signal, b_signal, atol=1e-9)
        assert s_result.iterations == b_result.iterations
        assert s_result.converged == b_result.converged
        assert s_result.objective == pytest.approx(b_result.objective)


def test_batched_handles_unequal_sample_counts():
    shape = (12, 18)
    rng = np.random.default_rng(3)
    size = 12 * 18
    signal = idct_transform(
        np.concatenate([rng.normal(size=4) * 5, np.zeros(size - 4)]).reshape(shape)
    )
    problems = []
    for count in (20, 55, 90, 140):
        indices = np.sort(rng.choice(size, size=count, replace=False))
        problems.append((indices, signal.reshape(-1)[indices]))
    batched = ReconstructionEngine(shape).solve(problems)
    serial = [reconstruct_signal(shape, i, v) for i, v in problems]
    for (s_signal, _), (b_signal, _) in zip(serial, batched):
        assert np.allclose(s_signal, b_signal, atol=1e-9)


def test_convergence_mask_early_exit():
    """An easy problem in the stack must stop at its own (early)
    iteration count while a hard one iterates on — the per-landscape
    convergence masks at work."""
    shape = (16, 16)
    rng = np.random.default_rng(5)
    size = 256
    # Easy: a constant signal (converges almost immediately).
    easy_indices = np.sort(rng.choice(size, size=60, replace=False))
    easy = (easy_indices, np.full(60, 3.0))
    # Hard: dense random values (no sparse representation).
    hard_indices = np.sort(rng.choice(size, size=60, replace=False))
    hard = (hard_indices, rng.normal(size=60))
    config = ReconstructionConfig(max_iterations=400)
    results = ReconstructionEngine(shape, config).solve([easy, hard])
    easy_result, hard_result = results[0][1], results[1][1]
    assert easy_result.converged
    assert easy_result.iterations < hard_result.iterations


def test_warm_start_converges_in_fewer_iterations():
    shape = (20, 40)
    problems, _ = planted_problems(shape, batch=4, seed=7)
    engine = ReconstructionEngine(shape, ReconstructionConfig(max_iterations=400))
    cold = engine.solve(problems)
    warm_starts = [result.coefficients for _, result in cold]
    warmed = engine.solve(problems, warm_starts=warm_starts)
    for (_, cold_result), (_, warm_result) in zip(cold, warmed):
        assert warm_result.iterations < cold_result.iterations
    # A None entry means "start cold" for that problem only.
    mixed = engine.solve(problems, warm_starts=[None] + warm_starts[1:])
    assert mixed[0][1].iterations == cold[0][1].iterations


# -- validation and fallback paths ---------------------------------------------


def test_engine_validation_errors():
    engine = ReconstructionEngine((8, 8))
    good = (np.array([0, 5, 9]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="duplicates"):
        engine.solve([good, (np.array([1, 1, 4]), np.ones(3))])
    with pytest.raises(ValueError, match="matching lengths"):
        engine.solve([(np.array([0, 1]), np.ones(3))])
    with pytest.raises(ValueError, match="out of range"):
        engine.solve([(np.array([0, 64]), np.ones(2))])
    with pytest.raises(ValueError, match="at least one sample"):
        engine.solve([(np.array([], dtype=int), np.empty(0))])
    with pytest.raises(ValueError, match="non-finite"):
        engine.solve([(np.array([0, 1]), np.array([1.0, np.nan]))])
    with pytest.raises(ValueError, match="warm start"):
        engine.solve([good], warm_starts=[None, None])
    with pytest.raises(ValueError):
        ReconstructionEngine((0, 4))


def test_engine_empty_stack():
    assert ReconstructionEngine((8, 8)).solve([]) == []


def test_engine_serial_fallback_for_omp():
    """Non-FISTA solvers run serially through the engine with
    identical results."""
    shape = (10, 10)
    problems, _ = planted_problems(shape, batch=3, seed=13, fraction=0.4, sparsity=3)
    config = ReconstructionConfig(solver="omp", max_atoms=10)
    batched = ReconstructionEngine(shape, config).solve(problems)
    serial = [reconstruct_signal(shape, i, v, config) for i, v in problems]
    for (s_signal, _), (b_signal, _) in zip(serial, batched):
        assert np.array_equal(s_signal, b_signal)


# -- solver table ----------------------------------------------------------------


def test_registry_lists_builtin_solvers():
    assert available_solvers() == ("bp", "fista", "omp")
    with pytest.raises(ValueError, match="unknown solver"):
        reconstruct_signal(
            (4, 4),
            np.array([0]),
            np.array([1.0]),
            ReconstructionConfig(solver="zeros"),
        )


# -- OscarReconstructor.reconstruct_many ------------------------------------------


def test_reconstruct_many_matches_serial_reconstructor(qaoa6, medium_grid):
    generator = LandscapeGenerator(cost_function(qaoa6), medium_grid)
    oscar = OscarReconstructor(medium_grid, rng=0)
    sample_sets = []
    for fraction in (0.08, 0.10, 0.12):
        indices = oscar.sample_indices(fraction)
        sample_sets.append((indices, generator.evaluate_indices(indices)))
    batched = oscar.reconstruct_many(
        sample_sets, labels=[f"f{i}" for i in range(3)]
    )
    for (indices, values), (landscape, report) in zip(sample_sets, batched):
        serial_landscape, serial_report = oscar.reconstruct_from_samples(
            indices, values
        )
        assert np.allclose(landscape.values, serial_landscape.values, atol=1e-9)
        assert report.solver_iterations == serial_report.solver_iterations
        assert report.num_samples == indices.size
        assert landscape.circuit_executions == indices.size
    assert [landscape.label for landscape, _ in batched] == ["f0", "f1", "f2"]


def test_reconstruct_many_validation(medium_grid):
    oscar = OscarReconstructor(medium_grid)
    good = (np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="duplicates"):
        oscar.reconstruct_many([good, (np.array([5, 5]), np.ones(2))])
    with pytest.raises(ValueError, match="matching lengths"):
        oscar.reconstruct_many([(np.array([0, 1]), np.ones(3))])
    with pytest.raises(ValueError, match="non-finite"):
        oscar.reconstruct_many([(np.array([0, 1]), np.array([np.inf, 0.0]))])
    # Serial and batched paths agree on range validation too.
    with pytest.raises(ValueError, match="out of range"):
        oscar.reconstruct_from_samples(np.array([-1, 5]), np.ones(2))
    with pytest.raises(ValueError, match="out of range"):
        oscar.reconstruct_many([(np.array([-1, 5]), np.ones(2))])
    with pytest.raises(ValueError, match="label"):
        oscar.reconstruct_many([good], labels=["a", "b"])


def test_reconstruct_many_p2_reshape():
    """4-D grids batch through the paper's 2-D concatenation reshape."""
    grid = qaoa_grid(p=2, resolution=(5, 6))
    rng = np.random.default_rng(19)
    flat = rng.choice(grid.size, size=grid.size // 3, replace=False)
    values = rng.normal(size=flat.size)
    oscar = OscarReconstructor(grid, rng=0)
    batched = oscar.reconstruct_many([(flat, values)])
    serial = oscar.reconstruct_from_samples(flat, values)
    assert batched[0][0].values.shape == grid.shape
    assert np.allclose(batched[0][0].values, serial[0].values, atol=1e-9)


def test_warm_start_through_reconstructor(qaoa6, medium_grid):
    """coefficients_of(previous) warm-starts a re-solve with more
    samples, converging in fewer iterations."""
    generator = LandscapeGenerator(cost_function(qaoa6), medium_grid)
    oscar = OscarReconstructor(medium_grid, rng=1)
    indices = oscar.sample_indices(0.10)
    values = generator.evaluate_indices(indices)
    first, cold_report = oscar.reconstruct_from_samples(indices, values)
    more = oscar.sample_indices(0.15)
    extra = np.setdiff1d(more, indices)
    grown_indices = np.concatenate([indices, extra])
    grown_values = np.concatenate([values, generator.evaluate_indices(extra)])
    _, cold_grown = oscar.reconstruct_from_samples(grown_indices, grown_values)
    _, warm_grown = oscar.reconstruct_from_samples(
        grown_indices, grown_values, warm_start=oscar.coefficients_of(first)
    )
    assert warm_grown.solver_iterations < cold_grown.solver_iterations
