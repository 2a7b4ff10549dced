"""Additional property-based tests: circuit algebra laws, fielded
Ising problems through QAOA, and parallel-scheduler edge cases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import QaoaAnsatz
from repro.hardware import QpuPool, SimulatedQPU
from repro.landscape import qaoa_grid
from repro.parallel import ParallelSampler
from repro.problems import IsingProblem
from repro.quantum import QuantumCircuit, simulate

ANGLES = st.floats(min_value=-2.0, max_value=2.0)


# -- circuit algebra laws --------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_compose_is_associative_in_action(seed):
    rng = np.random.default_rng(seed)

    def random_block():
        qc = QuantumCircuit(2)
        qc.rx(float(rng.normal()), 0)
        qc.cx(0, 1)
        qc.rz(float(rng.normal()), 1)
        return qc

    a, b, c = random_block(), random_block(), random_block()
    left = simulate(a.compose(b).compose(c))
    right = simulate(a.compose(b.compose(c)))
    assert left.fidelity(right) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100), scale=st.sampled_from([3, 5, 7]))
def test_folding_action_invariant_any_scale(seed, scale):
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(3)
    for _ in range(6):
        qc.rx(float(rng.normal()), int(rng.integers(0, 3)))
        a, b = rng.choice(3, size=2, replace=False)
        qc.rzz(float(rng.normal()), int(a), int(b))
    original = simulate(qc)
    folded = simulate(qc.folded(scale))
    assert original.fidelity(folded) == pytest.approx(1.0, abs=1e-9)
    assert len(qc.folded(scale)) == scale * len(qc)


def test_instructions_are_immutable_snapshots():
    qc = QuantumCircuit(1).x(0)
    snapshot = qc.instructions
    qc.h(0)
    assert len(snapshot) == 1  # earlier view unaffected
    with pytest.raises((TypeError, AttributeError)):
        snapshot[0].name = "z"  # frozen dataclass


# -- fielded Ising through QAOA ----------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(beta=ANGLES, gamma=ANGLES)
def test_qaoa_fast_path_with_linear_fields(beta, gamma):
    """The rz field layer in the explicit circuit must match the
    diagonal fast path for problems with linear terms."""
    problem = IsingProblem(
        4,
        couplings=((0, 1, 0.8), (1, 2, -0.5), (2, 3, 0.3)),
        fields=((0, 0.4), (2, -0.7)),
        offset=0.2,
    )
    ansatz = QaoaAnsatz(problem, p=1)
    params = np.array([beta, gamma])
    fast = ansatz.expectation(params)
    slow = simulate(ansatz.circuit(params)).expectation_diagonal(
        problem.cost_diagonal()
    )
    assert fast == pytest.approx(slow, abs=1e-9)


def test_fielded_problem_breaks_spin_flip_symmetry():
    problem = IsingProblem(3, ((0, 1, 1.0),), fields=((2, 0.5),))
    diagonal = problem.cost_diagonal()
    assert not np.allclose(diagonal, diagonal[::-1])


# -- scheduler edge cases --------------------------------------------------------------


def test_single_qpu_pool_scheduler(qaoa6):
    grid = qaoa_grid(p=1, resolution=(8, 12))
    pool = QpuPool([SimulatedQPU("solo", seed=0)])
    sampler = ParallelSampler(pool, grid)
    indices = np.arange(0, grid.size, 7)
    batch = sampler.run(qaoa6, indices)
    assert batch.flat_indices.size == indices.size
    assert set(np.unique(batch.device_of_sample)) == {0}


def test_scheduler_empty_chunk_skipped(qaoa6):
    grid = qaoa_grid(p=1, resolution=(8, 12))
    pool = QpuPool([SimulatedQPU("a", seed=0), SimulatedQPU("b", seed=1)])
    sampler = ParallelSampler(pool, grid)
    indices = np.arange(10)
    batch = sampler.run(qaoa6, indices, fractions=[1.0, 0.0])
    assert batch.flat_indices.size == 10
    assert set(np.unique(batch.device_of_sample)) == {0}
