"""Batched execution layer: equivalence with the serial engine.

Covers the ``BatchedStatevector`` gate semantics against the serial
:class:`~repro.quantum.statevector.Statevector`, the
``Ansatz.expectation_many`` interface for all three ansatzes (ideal
exactly, shots statistically with a shared seeded rng, and the noisy
QAOA contraction path), the batched ``LandscapeGenerator`` chunking,
the cached QAOA noise contraction, the shot-count validation of the
samplers, and the centralized ``ensure_rng`` seeding policy.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ansatz.qaoa as qaoa_module
from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz
from repro.experiments.slices import SliceCostFunction, random_slice
from repro.landscape import LandscapeGenerator, cost_function, qaoa_grid
from repro.landscape.generator import evaluate_points_chunked
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.problems.chemistry import h2_hamiltonian
from repro.quantum import BatchedStatevector, NoiseModel, Statevector, default_batch_size
from repro.quantum.gates import CX, H, rx, ry
from repro.utils import ensure_rng

ATOL = 1e-12


def _random_batch(num_qubits: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    data = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    return data / np.linalg.norm(data, axis=1, keepdims=True)


# -- BatchedStatevector gate semantics ----------------------------------------


def test_initial_state_and_uniform_superposition():
    state = BatchedStatevector(3, batch_size=4)
    expected = np.zeros((4, 8), dtype=complex)
    expected[:, 0] = 1.0
    assert np.allclose(state.data, expected)
    uniform = BatchedStatevector.uniform_superposition(3, 2)
    assert np.allclose(uniform.probabilities(), 1.0 / 8.0)
    assert uniform.batch_size == 2 and uniform.dim == 8


def test_constructor_validates_shapes():
    with pytest.raises(ValueError):
        BatchedStatevector(2)  # neither batch_size nor data
    with pytest.raises(ValueError):
        BatchedStatevector(2, data=np.ones((3, 5)))
    with pytest.raises(ValueError):
        BatchedStatevector(2, batch_size=2, data=np.ones((3, 4)))


@pytest.mark.parametrize("qubit", [0, 1, 2])
def test_apply_one_qubit_shared_matches_serial(qubit):
    data = _random_batch(3, 5, seed=0)
    batched = BatchedStatevector(3, data=data)
    batched.apply_one_qubit(rx(0.7), qubit)
    for row in range(5):
        serial = Statevector(3, data[row])
        serial.apply_one_qubit(rx(0.7), qubit)
        assert np.allclose(batched.data[row], serial.data, atol=ATOL)


def test_apply_one_qubit_per_row_matches_serial():
    data = _random_batch(3, 6, seed=1)
    thetas = np.linspace(-1.0, 2.0, 6)
    stack = np.array([ry(theta) for theta in thetas])
    batched = BatchedStatevector(3, data=data)
    batched.apply_one_qubit(stack, 1)
    for row in range(6):
        serial = Statevector(3, data[row])
        serial.apply_one_qubit(ry(thetas[row]), 1)
        assert np.allclose(batched.data[row], serial.data, atol=ATOL)


@pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 2), (2, 1)])
def test_apply_two_qubit_matches_serial(qubits):
    data = _random_batch(3, 4, seed=2)
    batched = BatchedStatevector(3, data=data)
    batched.apply_two_qubit(CX, *qubits)
    for row in range(4):
        serial = Statevector(3, data[row])
        serial.apply_two_qubit(CX, *qubits)
        assert np.allclose(batched.data[row], serial.data, atol=ATOL)


def test_apply_two_qubit_per_row_matches_serial():
    rng = np.random.default_rng(3)
    data = _random_batch(3, 4, seed=3)
    raw = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    stack = np.array([np.linalg.qr(m)[0] for m in raw])
    batched = BatchedStatevector(3, data=data)
    batched.apply_two_qubit(stack, 0, 2)
    for row in range(4):
        serial = Statevector(3, data[row])
        serial.apply_two_qubit(stack[row], 0, 2)
        assert np.allclose(batched.data[row], serial.data, atol=ATOL)


def test_gate_operand_shape_validation():
    state = BatchedStatevector(2, batch_size=3)
    with pytest.raises(ValueError):
        state.apply_one_qubit(np.eye(2)[None].repeat(2, axis=0), 0)
    with pytest.raises(ValueError):
        state.apply_two_qubit(np.eye(4)[None].repeat(2, axis=0), 0, 1)
    with pytest.raises(ValueError):
        state.apply_diagonal(np.ones(3))


def test_apply_diagonal_shared_and_per_row():
    data = _random_batch(2, 3, seed=4)
    shared = np.exp(1j * np.arange(4))
    batched = BatchedStatevector(2, data=data)
    batched.apply_diagonal(shared)
    assert np.allclose(batched.data, data * shared[None, :], atol=ATOL)
    per_row = np.exp(1j * np.arange(12).reshape(3, 4))
    batched = BatchedStatevector(2, data=data)
    batched.apply_diagonal(per_row)
    assert np.allclose(batched.data, data * per_row, atol=ATOL)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_apply_hadamard_all_matches_gate_loop(num_qubits):
    data = _random_batch(num_qubits, 3, seed=5)
    batched = BatchedStatevector(num_qubits, data=data)
    batched.apply_hadamard_all()
    for row in range(3):
        serial = Statevector(num_qubits, data[row])
        for qubit in range(num_qubits):
            serial.apply_one_qubit(H, qubit)
        assert np.allclose(batched.data[row], serial.data, atol=ATOL)


def test_apply_hadamard_all_custom_scale():
    data = _random_batch(3, 2, seed=6)
    normalized = BatchedStatevector(3, data=data)
    normalized.apply_hadamard_all()
    unnormalized = BatchedStatevector(3, data=data)
    unnormalized.apply_hadamard_all(scale=1.0)
    assert np.allclose(
        unnormalized.data, normalized.data * 2.0 ** (3 / 2), atol=ATOL
    )


def test_measurement_helpers_match_serial():
    data = _random_batch(3, 4, seed=7)
    diagonal = np.random.default_rng(8).normal(size=8)
    batched = BatchedStatevector(3, data=data)
    assert np.allclose(batched.norms(), 1.0, atol=ATOL)
    expectations = batched.expectation_diagonal(diagonal)
    for row in range(4):
        serial = Statevector(3, data[row])
        assert np.isclose(
            expectations[row], serial.expectation_diagonal(diagonal), atol=ATOL
        )
        assert np.allclose(
            batched.probabilities()[row], serial.probabilities(), atol=ATOL
        )
        assert np.allclose(batched.row(row).data, serial.data, atol=ATOL)


def test_expectation_matrix_matches_serial():
    rng = np.random.default_rng(16)
    data = _random_batch(3, 4, seed=17)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    observable = raw + raw.conj().T  # Hermitian
    batched = BatchedStatevector(3, data=data)
    values = batched.expectation_matrix(observable)
    for row in range(4):
        serial = Statevector(3, data[row]).expectation_matrix(observable)
        assert np.isclose(values[row], serial, atol=ATOL)


def test_batched_sampling_shares_rng_draw_order_with_serial():
    data = _random_batch(3, 5, seed=9)
    diagonal = np.random.default_rng(10).normal(size=8)
    batched = BatchedStatevector(3, data=data)
    serial_rng = np.random.default_rng(11)
    batched_rng = np.random.default_rng(11)
    batched_values = batched.sample_expectation_diagonal(
        diagonal, shots=64, rng=batched_rng
    )
    serial_values = [
        Statevector(3, data[row]).sample_expectation_diagonal(
            diagonal, 64, serial_rng
        )
        for row in range(5)
    ]
    assert np.allclose(batched_values, serial_values, atol=ATOL)


def test_sample_counts_default_pins_serial_draw_order():
    """The batched sampler must consume the shared generator exactly
    like a serial loop of ``Statevector.sample_counts`` — identical
    dicts, draw for draw."""
    data = _random_batch(3, 5, seed=12)
    batched = BatchedStatevector(3, data=data)
    batched_rng = np.random.default_rng(21)
    serial_rng = np.random.default_rng(21)
    # Base-49 digits: with 48 shots each estimate * 48 encodes the whole
    # counts dict exactly, so equal estimates mean equal dicts.
    shots, base = 48, 49
    diagonal = np.array([float(base**index) for index in range(8)])
    estimates = batched.sample_expectation_diagonal(diagonal, shots, batched_rng)
    batched_counts = []
    for estimate in estimates:
        code = round(estimate * shots)
        counts = {}
        for index in range(8):
            code, count = divmod(code, base)
            if count:
                counts[index] = count
        batched_counts.append(counts)
    serial_counts = [
        Statevector(3, data[row]).sample_counts(shots, serial_rng)
        for row in range(5)
    ]
    assert batched_counts == serial_counts
    # Both generators sit at the same stream position afterwards.
    assert batched_rng.integers(1 << 63) == serial_rng.integers(1 << 63)


def test_copy_is_independent():
    state = BatchedStatevector.uniform_superposition(2, 2)
    clone = state.copy()
    clone.apply_diagonal(np.full(4, -1.0))
    assert np.allclose(state.data, 0.5)


# -- default batch sizing -----------------------------------------------------


def test_default_batch_size_caps():
    assert default_batch_size(None) == 512
    assert default_batch_size(2) == 512  # max-batch bound
    assert default_batch_size(10) == (1 << 15) >> 10  # memory bound
    assert default_batch_size(30) == 1  # never below one row


# -- expectation_many equivalence ---------------------------------------------


def _qaoa(p: int = 1) -> QaoaAnsatz:
    return QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=p)


@pytest.mark.parametrize("p", [1, 2])
def test_qaoa_expectation_many_matches_serial_ideal(p):
    ansatz = _qaoa(p)
    rng = np.random.default_rng(0)
    batch = rng.uniform(-np.pi, np.pi, size=(23, ansatz.num_parameters))
    serial = np.array([ansatz.expectation(row) for row in batch])
    assert np.allclose(ansatz.expectation_many(batch), serial, atol=ATOL)


def test_qaoa_expectation_many_matches_serial_noisy(mild_noise):
    ansatz = _qaoa(p=1)
    rng = np.random.default_rng(1)
    batch = rng.uniform(-np.pi, np.pi, size=(17, ansatz.num_parameters))
    serial = np.array(
        [ansatz.expectation(row, noise=mild_noise) for row in batch]
    )
    batched = ansatz.expectation_many(batch, noise=mild_noise)
    assert np.allclose(batched, serial, atol=ATOL)


def test_qaoa_expectation_many_sk_problem_uses_dense_cost_path():
    # SK costs are continuous, so the unique-value compression is
    # skipped; the dense exponential path must agree all the same.
    ansatz = QaoaAnsatz(sk_problem(5, seed=3), p=1)
    rng = np.random.default_rng(2)
    batch = rng.uniform(-np.pi, np.pi, size=(9, 2))
    serial = np.array([ansatz.expectation(row) for row in batch])
    assert np.allclose(ansatz.expectation_many(batch), serial, atol=ATOL)


def test_qaoa_expectation_many_shots_statistics(mild_noise):
    """Shot-sampled batched estimates are unbiased around the serial
    exact values (shared seeded rng), including the noisy contraction."""
    ansatz = _qaoa(p=1)
    rng = np.random.default_rng(3)
    batch = rng.uniform(-np.pi, np.pi, size=(12, 2))
    shots = 4096
    spread = float(np.ptp(ansatz.cost_diagonal))
    bound = 6.0 * spread / np.sqrt(shots)
    for noise in (None, mild_noise):
        exact = ansatz.expectation_many(batch, noise=noise)
        sampled = ansatz.expectation_many(
            batch, noise=noise, shots=shots, rng=np.random.default_rng(4)
        )
        assert np.all(np.abs(sampled - exact) < bound)
        assert not np.allclose(sampled, exact)  # genuinely stochastic


def test_twolocal_expectation_many_matches_serial(mild_noise):
    hamiltonian = sk_problem(4, seed=2).to_pauli_sum()
    ansatz = TwoLocalAnsatz(hamiltonian, reps=1)
    rng = np.random.default_rng(5)
    batch = rng.uniform(-np.pi, np.pi, size=(7, ansatz.num_parameters))
    for noise in (None, mild_noise):
        serial = np.array(
            [ansatz.expectation(row, noise=noise) for row in batch]
        )
        assert np.allclose(
            ansatz.expectation_many(batch, noise=noise), serial, atol=ATOL
        )
    # Shots: the fallback loop consumes the shared rng row by row, so a
    # seeded serial loop reproduces the batch exactly.
    serial = np.array(
        [
            ansatz.expectation(row, shots=128, rng=np.random.default_rng(6))
            for row in batch
        ]
    )
    # Per-row generators above restart the stream; replay the batched
    # call with the same per-row seeding contract via one shared rng.
    shared_serial_rng = np.random.default_rng(7)
    serial_shared = np.array(
        [
            ansatz.expectation(row, shots=128, rng=shared_serial_rng)
            for row in batch
        ]
    )
    batched_shared = ansatz.expectation_many(
        batch, shots=128, rng=np.random.default_rng(7)
    )
    assert np.allclose(batched_shared, serial_shared, atol=ATOL)
    assert serial.shape == batched_shared.shape


def test_uccsd_expectation_many_matches_serial(mild_noise):
    ansatz = UccsdAnsatz(h2_hamiltonian(), num_parameters=3)
    rng = np.random.default_rng(8)
    batch = rng.uniform(-np.pi, np.pi, size=(5, 3))
    for noise in (None, mild_noise):
        serial = np.array(
            [ansatz.expectation(row, noise=noise) for row in batch]
        )
        assert np.allclose(
            ansatz.expectation_many(batch, noise=noise), serial, atol=ATOL
        )
    shared = np.random.default_rng(9)
    serial_shots = np.array(
        [ansatz.expectation(row, shots=64, rng=shared) for row in batch]
    )
    batched_shots = ansatz.expectation_many(
        batch, shots=64, rng=np.random.default_rng(9)
    )
    assert np.allclose(batched_shots, serial_shots, atol=ATOL)


def test_expectation_many_promotes_single_vector_and_validates():
    ansatz = _qaoa(p=1)
    single = ansatz.expectation_many([0.3, -0.8])
    assert single.shape == (1,)
    assert np.isclose(single[0], ansatz.expectation([0.3, -0.8]), atol=ATOL)
    with pytest.raises(ValueError):
        ansatz.expectation_many(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ansatz.expectation_many(np.zeros((2, 2, 2)))


def test_qaoa_statevector_many_matches_statevector():
    ansatz = _qaoa(p=2)
    rng = np.random.default_rng(10)
    batch = rng.uniform(-np.pi, np.pi, size=(6, 4))
    states = ansatz.statevector_many(batch)
    for row in range(6):
        assert np.allclose(
            states.data[row], ansatz.statevector(batch[row]).data, atol=ATOL
        )


# -- cached noise contraction -------------------------------------------------


def test_noise_contraction_factor_computed_once(monkeypatch, mild_noise):
    ansatz = _qaoa(p=1)
    calls = {"count": 0}
    original = qaoa_module.global_depolarizing_factor

    def counting(circuit, noise):
        calls["count"] += 1
        return original(circuit, noise)

    monkeypatch.setattr(qaoa_module, "global_depolarizing_factor", counting)
    point = np.array([0.2, -0.4])
    first = ansatz.expectation(point, noise=mild_noise)
    for _ in range(5):
        ansatz.expectation(point, noise=mild_noise)
    ansatz.expectation_many(np.tile(point, (4, 1)), noise=mild_noise)
    assert calls["count"] == 1
    # A different model is a different cache entry, not a stale hit.
    other = NoiseModel(p1=0.01, p2=0.02, readout=0.05)
    ansatz.expectation(point, noise=other)
    assert calls["count"] == 2
    # The cached value matches the from-scratch computation.
    expected = original(ansatz.circuit(point), mild_noise) * (
        1.0 - 2.0 * mild_noise.readout
    ) ** 2
    assert np.isclose(ansatz._contraction_factor(mild_noise), expected)
    fresh = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)
    assert np.isclose(first, fresh.expectation(point, noise=mild_noise))


# -- sample_counts fix --------------------------------------------------------


def test_sample_counts_rejects_non_positive_shots():
    state = Statevector.from_label("00")
    for shots in (0, -3):
        with pytest.raises(ValueError):
            state.sample_counts(shots)
    with pytest.raises(ValueError):
        state.sample_expectation_diagonal(np.ones(4), 0)
    batched = BatchedStatevector(2, data=np.array([state.data] * 2))
    with pytest.raises(ValueError):
        batched.sample_expectation_diagonal(np.ones(4), -1, np.random.default_rng(0))


def test_sample_counts_skips_renormalization_when_normalized(monkeypatch):
    import repro.quantum.statevector as statevector_module

    clip_calls = {"count": 0}
    original_clip = np.clip

    def counting_clip(*args, **kwargs):
        clip_calls["count"] += 1
        return original_clip(*args, **kwargs)

    # np.clip only runs on the renormalization branch of sample_counts.
    monkeypatch.setattr(statevector_module.np, "clip", counting_clip)
    normalized = Statevector.from_label("0")
    counts = normalized.sample_counts(16, np.random.default_rng(0))
    assert counts == {0: 16}
    assert clip_calls["count"] == 0
    unnormalized = Statevector(1, np.array([2.0, 0.0]))
    assert unnormalized.sample_counts(4, np.random.default_rng(0)) == {0: 4}
    assert clip_calls["count"] == 1


def test_sample_counts_renormalizes_unnormalized_states():
    state = Statevector(1, np.array([2.0, 0.0]))
    counts = state.sample_counts(8, np.random.default_rng(0))
    assert counts == {0: 8}
    skewed = Statevector(1, np.array([1.0, 1.0]))  # norm sqrt(2)
    counts = skewed.sample_counts(1000, np.random.default_rng(1))
    assert set(counts) == {0, 1}
    assert sum(counts.values()) == 1000


# -- ensure_rng ---------------------------------------------------------------


def test_ensure_rng_passthrough_seed_and_default():
    generator = np.random.default_rng(0)
    assert ensure_rng(generator) is generator
    assert ensure_rng(42).integers(1000) == np.random.default_rng(42).integers(1000)
    fresh = ensure_rng(None)
    assert isinstance(fresh, np.random.Generator)


# -- batched landscape generation --------------------------------------------


def test_grid_search_matches_pointwise_loop(qaoa6, small_grid):
    function = cost_function(qaoa6)
    generator = LandscapeGenerator(function, small_grid)
    landscape = generator.grid_search()
    serial = np.array(
        [function(point) for _, point in small_grid.iter_points()]
    )
    assert np.allclose(landscape.flat(), serial, atol=ATOL)
    assert landscape.circuit_executions == small_grid.size


@pytest.mark.parametrize("batch_size", [1, 3, 100, 10_000])
def test_grid_search_is_chunk_size_invariant(qaoa6, small_grid, batch_size):
    reference = LandscapeGenerator(cost_function(qaoa6), small_grid)
    points = small_grid.points_from_flat(np.arange(small_grid.size))
    chunked = evaluate_points_chunked(cost_function(qaoa6), points, batch_size)
    assert np.allclose(chunked, reference.grid_search().flat(), atol=ATOL)


def test_evaluate_indices_matches_grid_search_values(qaoa6, small_grid):
    generator = LandscapeGenerator(cost_function(qaoa6), small_grid)
    landscape = generator.grid_search()
    indices = np.array([0, 5, 17, small_grid.size - 1])
    assert np.allclose(
        generator.evaluate_indices(indices),
        landscape.flat()[indices],
        atol=ATOL,
    )
    assert generator.evaluate_indices(np.empty(0, dtype=int)).shape == (0,)


def test_plain_closure_falls_back_to_pointwise_loop(small_grid):
    calls = {"count": 0}

    def closure(parameters: np.ndarray) -> float:
        calls["count"] += 1
        return float(np.sum(parameters))

    generator = LandscapeGenerator(closure, small_grid)
    landscape = generator.grid_search()
    assert calls["count"] == small_grid.size
    assert np.isclose(
        landscape.flat()[3], float(np.sum(small_grid.point_from_flat(3)))
    )


def test_generator_rejects_bad_batch_size(qaoa6, small_grid):
    points = small_grid.points_from_flat(np.arange(small_grid.size))
    with pytest.raises(ValueError):
        evaluate_points_chunked(cost_function(qaoa6), points, 0)


def test_slice_generator_batched_matches_manual_embedding():
    hamiltonian = sk_problem(4, seed=2).to_pauli_sum()
    for ansatz in (
        _qaoa(p=2),
        TwoLocalAnsatz(hamiltonian, reps=1),
    ):
        spec = random_slice(ansatz, 5, rng=np.random.default_rng(0))
        points = spec.grid.points_from_flat(np.arange(spec.grid.size))
        values = evaluate_points_chunked(
            SliceCostFunction(ansatz, spec), points, 7
        )
        for flat, slice_point in spec.grid.iter_points():
            full = spec.fixed_values.copy()
            full[spec.varying[0]] = slice_point[0]
            full[spec.varying[1]] = slice_point[1]
            assert np.isclose(values[flat], ansatz.expectation(full), atol=ATOL)


def test_cost_function_exposes_batch_metadata(qaoa6):
    function = cost_function(qaoa6)
    assert function.num_qubits == qaoa6.num_qubits
    values = function.many(np.zeros((3, qaoa6.num_parameters)))
    assert values.shape == (3,)
    assert np.isclose(values[0], function(np.zeros(qaoa6.num_parameters)))
