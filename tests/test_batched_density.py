"""Unit and property tests for the batched density engine.

Covers :mod:`repro.quantum.batched_density` (circuit replay, per-row
noise/readout, memory-capped sizing), the bounded per-(kind,
probability) channel caches in :mod:`repro.quantum.noise`, and the
density-aware chunk sizing threaded through the ansatz/mitigation/
landscape layers.  The hypothesis section asserts the physical channel
invariants — trace preserved, purity bounded — on the path the program
runs, :meth:`~repro.quantum.batched_density.BatchedDensityMatrix.evolve_circuits`,
with hypothesis-drawn depolarizing noise models, shared and per-row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ansatz.base as ansatz_base
from repro.ansatz import QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz
from repro.landscape.generator import cost_function, resolve_batch_size
from repro.mitigation.cdr import CdrCostFunction, CliffordDataRegression
from repro.mitigation.zne import ZneConfig, zne_cost_function
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.problems.chemistry import h2_hamiltonian
from repro.quantum import (
    BatchedDensityMatrix,
    NoiseModel,
    QuantumCircuit,
    default_batch_size,
    default_density_batch_size,
    simulate_density,
)
from repro.quantum.noise import (
    depolarizing_kraus,
    kraus_stack,
    kraus_superop,
    two_qubit_depolarizing_kraus,
)

NOISE = NoiseModel(p1=0.01, p2=0.03, readout=0.02)


def _random_circuits(num_qubits, batch, rng):
    """Structurally identical bound circuits with per-row parameters."""
    circuits = []
    for _ in range(batch):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        qc = QuantumCircuit(num_qubits)
        qc.h(0).cx(0, 1).rx(theta[0], num_qubits - 1)
        qc.rzz(theta[1], 0, num_qubits - 1)
        qc.ry(theta[2], 1).cz(1, num_qubits - 1)
        circuits.append(qc)
    return circuits


def _random_pure_stack(num_qubits, batch, seed):
    rng = np.random.default_rng(seed)
    shape = (batch, 1 << num_qubits)
    amplitudes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
    return BatchedDensityMatrix.from_statevectors(amplitudes)


# -- construction and basic invariants ----------------------------------------


def test_initial_stack_is_ground_state():
    rho = BatchedDensityMatrix(2, batch_size=3)
    assert rho.data.shape == (3, 4, 4)
    assert np.allclose(rho.data[:, 0, 0], 1.0)
    np.testing.assert_allclose(rho.traces(), 1.0)
    np.testing.assert_allclose(rho.purities(), 1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        BatchedDensityMatrix(2, data=np.eye(4))  # missing batch axis
    with pytest.raises(ValueError):
        BatchedDensityMatrix(2, batch_size=2, data=np.zeros((3, 4, 4)))
    with pytest.raises(ValueError):
        BatchedDensityMatrix(2)  # neither batch_size nor data


def test_from_statevectors_is_pure():
    rho = _random_pure_stack(3, 4, seed=0)
    np.testing.assert_allclose(rho.traces(), 1.0, atol=1e-12)
    np.testing.assert_allclose(rho.purities(), 1.0, atol=1e-12)


# -- circuit replay vs the serial oracle --------------------------------------


def test_evolve_circuits_matches_serial_shared_noise():
    rng = np.random.default_rng(7)
    circuits = _random_circuits(3, 5, rng)
    rho = BatchedDensityMatrix(3, batch_size=5).evolve_circuits(circuits, NOISE)
    for index, circuit in enumerate(circuits):
        reference = simulate_density(circuit, NOISE)
        np.testing.assert_allclose(
            rho.data[index], reference.data, atol=1e-12
        )


def test_evolve_circuits_matches_serial_per_row_noise():
    rng = np.random.default_rng(8)
    circuits = _random_circuits(3, 4, rng)
    models = [None, NOISE, NoiseModel(), NOISE.scaled(2.0)]
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(circuits, models)
    for index, (circuit, model) in enumerate(zip(circuits, models)):
        reference = simulate_density(circuit, model)
        np.testing.assert_allclose(
            rho.data[index], reference.data, atol=1e-12
        )


def test_evolve_circuits_rejects_structure_mismatch():
    qc1 = QuantumCircuit(2).h(0).cx(0, 1)
    qc2 = QuantumCircuit(2).h(0).cx(1, 0)  # same gates, different operands
    with pytest.raises(ValueError, match="structurally identical"):
        BatchedDensityMatrix(2, batch_size=2).evolve_circuits([qc1, qc2])


def test_evolve_circuits_rejects_wrong_batch_length():
    qc = QuantumCircuit(2).h(0)
    with pytest.raises(ValueError, match="one per row"):
        BatchedDensityMatrix(2, batch_size=3).evolve_circuits([qc, qc])


# -- measurement --------------------------------------------------------------


def test_probabilities_per_row_readout_matches_serial():
    rng = np.random.default_rng(9)
    circuits = _random_circuits(3, 4, rng)
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(circuits, NOISE)
    readout = np.array([0.0, 0.05, 0.2, 0.0])
    probs = rho.probabilities(readout)
    for index, circuit in enumerate(circuits):
        reference = simulate_density(circuit, NOISE)
        np.testing.assert_allclose(
            probs[index],
            reference.probabilities(float(readout[index])),
            atol=1e-12,
        )


def test_expectation_matrix_matches_trace_formula():
    rng = np.random.default_rng(10)
    rho = _random_pure_stack(3, 4, seed=11)
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    hermitian = matrix + matrix.conj().T
    values = rho.expectation_matrix(hermitian)
    expected = [
        np.real(np.trace(rho.data[index] @ hermitian)) for index in range(4)
    ]
    np.testing.assert_allclose(values, expected, atol=1e-10)


# -- Kraus-stack cache --------------------------------------------------------


def test_kraus_stack_is_cached_and_read_only():
    first = kraus_stack("depolarizing", 0.1)
    assert kraus_stack("depolarizing", 0.1) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0, 0] = 1.0
    np.testing.assert_allclose(first, np.stack(depolarizing_kraus(0.1)))
    np.testing.assert_allclose(
        kraus_stack("two_qubit_depolarizing", 0.2),
        np.stack(two_qubit_depolarizing_kraus(0.2)),
    )
    with pytest.raises(ValueError, match="unknown channel kind"):
        kraus_stack("thermal", 0.1)


def test_channel_caches_are_bounded():
    """A long-lived process (the daemon) that meets many distinct noise
    models keeps at most ``maxsize`` channels in each cache."""
    bound = kraus_superop.cache_info().maxsize
    assert bound is not None
    for probability in np.linspace(0.0, 0.5, bound + 50):
        kraus_superop("two_qubit_depolarizing", float(probability))
    for cache in (kraus_stack, kraus_superop):
        assert cache.cache_info().currsize <= bound


# -- memory-capped sizing ------------------------------------------------------


def test_default_density_batch_size_caps():
    assert default_density_batch_size(None) == 512
    # 4**n per row: at n=8 the 2**17 budget leaves two rows.
    assert default_density_batch_size(8) == 2
    assert default_density_batch_size(12) == 1  # floor at one row
    sizes = [default_density_batch_size(n) for n in range(1, 13)]
    assert sizes == sorted(sizes, reverse=True)


def test_density_batch_smaller_than_statevector_batch():
    # The density stack squares the per-row footprint, so the default
    # chunk must shrink relative to the statevector default.
    for num_qubits in (5, 6, 8):
        assert default_density_batch_size(num_qubits) < default_batch_size(
            num_qubits
        )


def test_ansatz_batch_capacity_is_noise_aware():
    ansatz = TwoLocalAnsatz(sk_problem(6, seed=0).to_pauli_sum(), reps=1)
    assert ansatz.batch_capacity() == default_batch_size(6)
    assert ansatz.batch_capacity(NOISE) == default_density_batch_size(6)
    # Ideal models and per-row all-ideal sequences stay on the
    # statevector budget.
    assert ansatz.batch_capacity(NoiseModel()) == default_batch_size(6)
    assert ansatz.batch_capacity([None, NoiseModel()]) == default_batch_size(6)
    assert (
        ansatz.batch_capacity([None, NOISE]) == default_density_batch_size(6)
    )
    # QAOA's noisy path is the analytic contraction: no shrink.
    qaoa = QaoaAnsatz(random_3_regular_maxcut(6, seed=0), p=1)
    assert qaoa.batch_capacity(NOISE) == default_batch_size(6)


def test_resolve_batch_size_threads_density_capacity():
    ansatz = TwoLocalAnsatz(sk_problem(6, seed=0).to_pauli_sum(), reps=1)
    ideal = resolve_batch_size(cost_function(ansatz), None)
    noisy = resolve_batch_size(cost_function(ansatz, noise=NOISE), None)
    assert ideal == default_batch_size(6)
    assert noisy == default_density_batch_size(6)
    assert noisy < ideal


def test_zne_chunks_divide_density_capacity_by_scales():
    ansatz = UccsdAnsatz(h2_hamiltonian(), num_parameters=3)
    function = zne_cost_function(
        ansatz, NOISE, ZneConfig(scale_factors=(1.0, 2.0, 3.0))
    )
    expected = max(1, default_density_batch_size(ansatz.num_qubits) // 3)
    assert resolve_batch_size(function, None) == expected


def test_cdr_reports_density_capacity():
    ansatz = TwoLocalAnsatz(sk_problem(4, seed=1).to_pauli_sum(), reps=1)
    model = CliffordDataRegression(ansatz, NOISE)
    function = CdrCostFunction(model)
    assert function.batch_capacity() == default_density_batch_size(4)


def test_density_batch_rows_override_still_matches(monkeypatch):
    ansatz = TwoLocalAnsatz(sk_problem(4, seed=2).to_pauli_sum(), reps=1)
    rng = np.random.default_rng(12)
    batch = rng.uniform(-np.pi, np.pi, size=(5, ansatz.num_parameters))
    reference = ansatz.expectation_many(batch, noise=NOISE)
    # Two-row density chunks force uneven chunk splits.
    monkeypatch.setattr(ansatz_base, "default_density_batch_size", lambda n: 2)
    chunked = ansatz.expectation_many(batch, noise=NOISE)
    np.testing.assert_allclose(chunked, reference, atol=1e-12)


# -- hypothesis: channel invariants through circuit replay ---------------------

PROBS = st.floats(min_value=0.0, max_value=1.0)
MODELS = st.builds(NoiseModel, p1=PROBS, p2=PROBS)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), model=MODELS)
def test_shared_kraus_preserves_trace_and_purity_bound(seed, model):
    """Replaying circuits under one shared model — both depolarizing
    kinds, as the circuits mix 1q and 2q gates — keeps every row a valid
    state: trace ~ 1, purity <= 1."""
    circuits = _random_circuits(3, 4, np.random.default_rng(seed))
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(circuits, model)
    np.testing.assert_allclose(rho.traces(), 1.0, atol=1e-10)
    assert np.all(rho.purities() <= 1.0 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    models=st.lists(st.none() | MODELS, min_size=4, max_size=4),
)
def test_per_row_kraus_preserves_trace_and_purity_bound(seed, models):
    """Per-row models — every row its own channels — keep every row a
    valid state, and a ``None`` row keeps the purity of its noiseless
    replay."""
    circuits = _random_circuits(3, 4, np.random.default_rng(seed))
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(circuits, models)
    np.testing.assert_allclose(rho.traces(), 1.0, atol=1e-10)
    assert np.all(rho.purities() <= 1.0 + 1e-9)
    noiseless = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(circuits)
    untouched = np.array([model is None for model in models])
    np.testing.assert_allclose(
        rho.purities()[untouched], noiseless.purities()[untouched], atol=1e-10
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), probability=PROBS)
def test_two_qubit_depolarizing_preserves_trace_shared_and_per_row(
    seed, probability
):
    """The two-qubit channel alone (``p1 = 0``), shared and with a
    different probability on every row."""
    rng = np.random.default_rng(seed)
    circuits = _random_circuits(3, 3, rng)
    shared = NoiseModel(p2=probability)
    per_row = [NoiseModel(p2=float(p)) for p in rng.uniform(0.0, 1.0, size=3)]
    for noise in (shared, per_row):
        rho = BatchedDensityMatrix(3, batch_size=3).evolve_circuits(circuits, noise)
        np.testing.assert_allclose(rho.traces(), 1.0, atol=1e-10)
        assert np.all(rho.purities() <= 1.0 + 1e-9)
