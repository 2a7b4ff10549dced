"""Edge cases of the batched slice / cost-function plumbing.

Covers ``SliceCostFunction`` on degenerate inputs (empty batches,
single points, batch sizes exceeding the grid) and the base-class
``expectation_many`` fallback that any ansatz without a native batched
path rides — including per-row noise handling and its validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz import TwoLocalAnsatz, UccsdAnsatz
from repro.ansatz.base import Ansatz
from repro.experiments.slices import SliceCostFunction, random_slice, slice_generator
from repro.landscape.generator import LandscapeGenerator
from repro.landscape.grid import GridAxis, ParameterGrid
from repro.problems import sk_problem
from repro.problems.chemistry import h2_hamiltonian
from repro.quantum import NoiseModel
from repro.quantum.circuit import QuantumCircuit
from repro.utils import ensure_rng

ATOL = 1e-12


class _PlainAnsatz(Ansatz):
    """Minimal ansatz with no native batched path (base fallback only)."""

    def __init__(self, num_parameters: int = 2):
        self.num_parameters = num_parameters
        self.num_qubits = 1
        self.calls: list[np.ndarray] = []

    def circuit(self, parameters):
        qc = QuantumCircuit(1)
        qc.ry(float(np.sum(parameters)), 0)
        return qc

    def expectation(self, parameters, noise=None, shots=None, rng=None):
        values = self._validate(parameters)
        self.calls.append(values.copy())
        value = float(np.cos(values).sum())
        if noise is not None and not noise.is_ideal:
            value *= 1.0 - noise.p1
        if shots is None:
            return value
        rng = ensure_rng(rng)
        return value + rng.normal(0.0, 1.0 / np.sqrt(shots))


# -- base-class expectation_many fallback -------------------------------------


def test_fallback_loops_expectation_row_by_row():
    ansatz = _PlainAnsatz()
    batch = np.random.default_rng(0).normal(size=(5, 2))
    values = ansatz.expectation_many(batch)
    assert values.shape == (5,)
    assert len(ansatz.calls) == 5
    serial = np.array([ansatz.expectation(row) for row in batch])
    assert np.allclose(values, serial, atol=ATOL)


def test_fallback_shots_consume_rng_in_batch_order():
    ansatz = _PlainAnsatz()
    batch = np.random.default_rng(1).normal(size=(4, 2))
    serial_rng = np.random.default_rng(2)
    batched_rng = np.random.default_rng(2)
    serial = np.array(
        [ansatz.expectation(row, shots=32, rng=serial_rng) for row in batch]
    )
    batched = ansatz.expectation_many(batch, shots=32, rng=batched_rng)
    assert np.allclose(batched, serial, atol=ATOL)
    assert serial_rng.integers(1 << 63) == batched_rng.integers(1 << 63)


def test_fallback_accepts_per_row_noise():
    ansatz = _PlainAnsatz()
    batch = np.random.default_rng(3).normal(size=(3, 2))
    noisy = NoiseModel(p1=0.1)
    rows = [None, noisy, None]
    values = ansatz.expectation_many(batch, noise=rows)
    expected = np.array(
        [ansatz.expectation(row, noise=model) for row, model in zip(batch, rows)]
    )
    assert np.allclose(values, expected, atol=ATOL)


def test_per_row_noise_validation():
    ansatz = _PlainAnsatz()
    batch = np.zeros((3, 2))
    with pytest.raises(ValueError):
        ansatz.expectation_many(batch, noise=[None, NoiseModel(p1=0.1)])
    with pytest.raises(TypeError):
        ansatz.expectation_many(batch, noise=[0.1, 0.2, 0.3])


def test_fallback_empty_batch():
    ansatz = _PlainAnsatz()
    values = ansatz.expectation_many(np.empty((0, 2)))
    assert values.shape == (0,)
    assert not ansatz.calls


# -- SliceCostFunction edge cases ---------------------------------------------


def _slice_case(points_per_axis: int = 5, seed: int = 0):
    ansatz = TwoLocalAnsatz(sk_problem(4, seed=2).to_pauli_sum(), reps=1)
    spec = random_slice(ansatz, points_per_axis, rng=np.random.default_rng(seed))
    return ansatz, spec


def test_slice_cost_function_empty_batch():
    ansatz, spec = _slice_case()
    function = SliceCostFunction(ansatz, spec)
    values = function.many(np.empty((0, 2)))
    assert np.asarray(values).shape == (0,)


def test_slice_cost_function_single_point_matches_call():
    ansatz, spec = _slice_case()
    function = SliceCostFunction(ansatz, spec)
    point = np.array([0.3, -0.9])
    assert np.isclose(function.many(point[None, :])[0], function(point), atol=ATOL)


def test_slice_generator_batch_size_larger_than_grid():
    ansatz, spec = _slice_case(points_per_axis=3)
    function = SliceCostFunction(ansatz, spec)
    oversized = LandscapeGenerator(function, spec.grid, batch_size=10_000).grid_search()
    reference = LandscapeGenerator(function, spec.grid, batch_size=1).grid_search()
    assert np.allclose(oversized.values, reference.values, atol=ATOL)
    assert oversized.values.shape == (3, 3)


def test_slice_generator_with_fallback_ansatz():
    """A custom ansatz without a native batched path still slices
    correctly through the base-class loop."""
    ansatz = _PlainAnsatz(num_parameters=4)
    spec = random_slice(ansatz, 4, rng=np.random.default_rng(5))
    landscape = LandscapeGenerator(
        SliceCostFunction(ansatz, spec), spec.grid, batch_size=3
    ).grid_search()
    for flat, slice_point in spec.grid.iter_points():
        full = spec.fixed_values.copy()
        full[spec.varying[0]] = slice_point[0]
        full[spec.varying[1]] = slice_point[1]
        assert np.isclose(
            landscape.flat()[flat], ansatz.expectation(full), atol=ATOL
        )


def test_uccsd_slice_rides_native_batched_path(monkeypatch):
    """Slices of the chemistry ansatzes now call the native batched
    engine, not the serial fallback loop."""
    ansatz = UccsdAnsatz(h2_hamiltonian(), num_parameters=3)
    spec = random_slice(ansatz, 4, rng=np.random.default_rng(6))
    called = {"native": 0}
    original = UccsdAnsatz.statevector_many

    def counting(self, batch):
        called["native"] += 1
        return original(self, batch)

    monkeypatch.setattr(UccsdAnsatz, "statevector_many", counting)
    slice_generator(ansatz, spec).grid_search()
    assert called["native"] >= 1


def test_empty_parameter_grid_slice_points():
    """LandscapeGenerator.evaluate_points on an empty selection stays
    empty for slice cost functions too."""
    ansatz, spec = _slice_case()
    generator = slice_generator(ansatz, spec)
    assert generator.evaluate_indices(np.empty(0, dtype=int)).shape == (0,)


def test_grid_axis_sanity():
    grid = ParameterGrid(
        [GridAxis("a", -1.0, 1.0, 2), GridAxis("b", -1.0, 1.0, 2)]
    )
    ansatz = _PlainAnsatz(num_parameters=2)
    from repro.landscape.generator import LandscapeGenerator, cost_function

    landscape = LandscapeGenerator(
        cost_function(ansatz), grid, batch_size=100
    ).grid_search()
    assert landscape.values.shape == (2, 2)
