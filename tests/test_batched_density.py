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
from repro.landscape.generator import (
    cost_function,
    evaluate_points_chunked,
    resolve_batch_size,
)
from repro.mitigation.cdr import CdrCostFunction, CliffordDataRegression
from repro.mitigation.zne import ZneConfig, zne_cost_function
from repro.problems import random_3_regular_maxcut, sk_problem
from repro.problems.chemistry import h2_hamiltonian, lih_hamiltonian
from repro.quantum import (
    BatchedDensityMatrix,
    DensityMatrix,
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


def _skeleton(num_qubits):
    """A replay skeleton mixing fixed and parameterized one- and
    two-qubit gates; its three angle columns feed ``rx``, ``rzz`` and
    ``ry`` (its own angles are placeholders)."""
    qc = QuantumCircuit(num_qubits)
    qc.h(0).cx(0, 1).rx(0.0, num_qubits - 1)
    qc.rzz(0.0, 0, num_qubits - 1)
    qc.ry(0.0, 1).cz(1, num_qubits - 1)
    return qc


def _random_angles(batch, rng):
    """A ``(batch, 3)`` angle matrix for :func:`_skeleton`."""
    return rng.uniform(-np.pi, np.pi, size=(batch, 3))


def _bound(skeleton, row):
    """The skeleton with one row of angles: the serial oracle's circuit."""
    qc = QuantumCircuit(skeleton.num_qubits)
    angles = iter(row)
    for instruction in skeleton.instructions:
        params = (float(next(angles)),) if instruction.params else ()
        qc.append(instruction.name, instruction.qubits, params)
    return qc


def _assert_rows_match_serial(rho, skeleton, angles, models):
    """Row ``b`` equals ``simulate_density`` of the skeleton bound to
    ``angles[b]`` under ``models[b]``."""
    for index, (row, model) in enumerate(zip(angles, models)):
        reference = simulate_density(_bound(skeleton, row), model)
        np.testing.assert_allclose(rho.data[index], reference.data, atol=1e-12)


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
    skeleton = _skeleton(3)
    angles = _random_angles(5, np.random.default_rng(7))
    rho = BatchedDensityMatrix(3, batch_size=5).evolve_circuits(
        skeleton, angles, NOISE
    )
    _assert_rows_match_serial(rho, skeleton, angles, [NOISE] * 5)


def test_evolve_circuits_matches_serial_per_row_noise():
    """Per-row models with three distinct nonzero rates (and zero-rate
    rows, ideal and ``None``), some rates on several rows: each
    channel is built once per rate and indexed per row."""
    skeleton = _skeleton(3)
    angles = _random_angles(7, np.random.default_rng(8))
    models = [
        None,
        NOISE,
        NoiseModel(),
        NOISE.scaled(2.0),
        NOISE,
        NOISE.scaled(3.0),
        NOISE.scaled(2.0),
    ]
    rho = BatchedDensityMatrix(3, batch_size=7).evolve_circuits(
        skeleton, angles, models
    )
    _assert_rows_match_serial(rho, skeleton, angles, models)


def test_evolve_circuits_two_qubit_rotations_share_a_column():
    """Parameterized two-qubit gates (``rxx``, ``ryy``) replay from
    their angle columns; two columns may carry the same parameter, as a
    UCCSD single's pair does."""
    skeleton = QuantumCircuit(3).x(0).rxx(0.0, 0, 2).ryy(0.0, 0, 2).cx(2, 1)
    theta = np.random.default_rng(13).uniform(-np.pi, np.pi, size=4)
    angles = np.stack([theta, theta], axis=1)
    models = [NOISE, NOISE.scaled(2.0), None, NOISE.scaled(3.0)]
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(
        skeleton, angles, models
    )
    _assert_rows_match_serial(rho, skeleton, angles, models)


def test_evolve_circuits_without_parameterized_gates():
    """A skeleton with no parameterized gate takes a ``(B, 0)`` angle
    matrix; rows then differ only by their noise."""
    skeleton = QuantumCircuit(3).h(0).cx(0, 2).h(1).cz(1, 2).s(2)
    angles = np.empty((3, 0))
    models = [NOISE, None, NOISE.scaled(2.0)]
    rho = BatchedDensityMatrix(3, batch_size=3).evolve_circuits(
        skeleton, angles, models
    )
    _assert_rows_match_serial(rho, skeleton, angles, models)


@pytest.mark.parametrize(
    "angles",
    [
        pytest.param(np.zeros(3), id="one-dimensional"),
        pytest.param(np.zeros((3, 3, 1)), id="three-dimensional"),
        pytest.param(np.zeros((2, 3)), id="too-few-rows"),
        pytest.param(np.zeros((4, 3)), id="too-many-rows"),
        pytest.param(np.zeros((3, 2)), id="too-few-columns"),
        pytest.param(np.zeros((3, 4)), id="too-many-columns"),
    ],
)
def test_evolve_circuits_rejects_misshapen_angles(angles):
    """The angle matrix needs one row per batch row and one column per
    parameterized instruction; anything else is refused before any
    gate runs."""
    rho = BatchedDensityMatrix(3, batch_size=3)
    before = rho.data.copy()
    with pytest.raises(ValueError, match="angles must have shape"):
        rho.evolve_circuits(_skeleton(3), angles, NOISE)
    np.testing.assert_array_equal(rho.data, before)


# -- shared-prefix replay: slots ------------------------------------------------


def _assert_rows_match_one_row_replays(rho, skeleton, angles, models):
    """Row ``b`` equals a one-row replay of row ``b`` bit for bit."""
    for index, model in enumerate(models):
        alone = BatchedDensityMatrix(skeleton.num_qubits, batch_size=1)
        alone.evolve_circuits(skeleton, angles[index : index + 1], model)
        np.testing.assert_array_equal(rho.data[index], alone.data[0])


def _slice_angles(width, varying, side, seed):
    """A Tables 2-3 slice as an angle matrix: every column frozen at one
    random value except the two ``varying`` ones, which run a
    ``side x side`` Cartesian grid (the first varying column slower)."""
    rng = np.random.default_rng(seed)
    angles = np.tile(rng.uniform(-np.pi, np.pi, width), (side * side, 1))
    axis = np.linspace(-np.pi, np.pi, side)
    angles[:, varying[0]] = np.repeat(axis, side)
    angles[:, varying[1]] = np.tile(axis, side)
    return angles


def _zne_rows(angles, models):
    """Point-major, scale-minor rows: each angle row once per model."""
    return np.repeat(angles, len(models), axis=0), models * angles.shape[0]


def _twolocal_skeleton(num_qubits):
    ansatz = TwoLocalAnsatz(sk_problem(num_qubits, seed=4).to_pauli_sum(), reps=1)
    return ansatz.circuit(np.zeros(ansatz.num_parameters))


def _uccsd_rows(num_points, seed):
    """UCCSD's skeleton and an angle matrix from its parameter columns
    (a single's RXX and RYY read one parameter), varying two parameters
    over a few values with the rest frozen."""
    ansatz = UccsdAnsatz(lih_hamiltonian(), num_parameters=8)
    skeleton = ansatz.circuit(np.zeros(ansatz.num_parameters))
    parameters = _slice_angles(ansatz.num_parameters, (2, 6), num_points, seed)
    return skeleton, parameters[:, ansatz._density_columns()]


SCALED = [NOISE, NOISE.scaled(2.0), NOISE.scaled(3.0)]


def _oracle_cases():
    twolocal = _twolocal_skeleton(3)
    slice_angles = _slice_angles(6, (3, 5), 3, seed=20)
    zne_angles, zne_models = _zne_rows(
        _slice_angles(6, (2, 4), 2, seed=21),
        [NOISE, None, NOISE.scaled(3.0), NoiseModel()],
    )
    repeated = np.repeat(_random_angles(2, np.random.default_rng(22)), 2, axis=0)
    mixed = [NOISE, NOISE, NOISE.scaled(2.0), None]
    uccsd, uccsd_angles = _uccsd_rows(2, seed=23)
    no_params = QuantumCircuit(3).h(0).cx(0, 2).h(1).cz(1, 2).s(2)
    return {
        "slice-shared-noise": (twolocal, slice_angles, [NOISE] * 9),
        "slice-per-row-noise": (
            twolocal,
            slice_angles,
            (SCALED + [None]) * 2 + [NOISE],
        ),
        "zne-rates": (twolocal, zne_angles, zne_models),
        "first-column-differs": (
            _skeleton(3),
            _random_angles(5, np.random.default_rng(24)),
            SCALED + [None, NOISE],
        ),
        "repeated-rows": (_skeleton(3), repeated, mixed),
        "no-parameters": (no_params, np.empty((5, 0)), SCALED + [None, NOISE]),
        "uccsd-shared-column": (uccsd, uccsd_angles, SCALED + [None]),
    }


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_every_row_equals_its_one_row_replay(case):
    """Slots share a state only while their rows' rates and angles are
    bit-equal, and each slot runs the matmuls its rows would: every row
    of a replay equals a one-row replay of that row exactly."""
    skeleton, angles, models = _oracle_cases()[case]
    rho = BatchedDensityMatrix(skeleton.num_qubits, batch_size=len(models))
    rho.evolve_circuits(skeleton, angles, models)
    _assert_rows_match_one_row_replays(rho, skeleton, angles, models)
    _assert_rows_match_serial(rho, skeleton, angles, models)


def _record_contracted_rows(monkeypatch):
    """Patch the replay's contraction step to log each call's row count."""
    import repro.quantum.batched_density as batched_density

    rows = []
    contract = batched_density._contract

    def recording(state, *args):
        rows.append(state.shape[0])
        return contract(state, *args)

    monkeypatch.setattr(batched_density, "_contract", recording)
    return rows


def test_zne_slice_contracts_one_row_per_scale_before_the_varying_gates(
    monkeypatch,
):
    """A 26x26 ZNE-folded 5-qubit Two-local slice varying parameters 8
    and 9 (instructions 12 and 13): in every chunk, each earlier gate
    contracts one row per scale factor instead of the chunk's rows (42
    points x 3 scales = 126), and instruction 12 one per slow-axis
    value and scale factor."""
    ansatz = TwoLocalAnsatz(sk_problem(5, seed=1).to_pauli_sum(), reps=1)
    gates = len(ansatz.circuit(np.zeros(ansatz.num_parameters)).instructions)
    points = _slice_angles(ansatz.num_parameters, (8, 9), 26, seed=25)
    function = zne_cost_function(ansatz, NOISE, ZneConfig((1.0, 2.0, 3.0)))
    chunk = resolve_batch_size(function, None)
    assert (gates, chunk) == (14, 42)
    rows = _record_contracted_rows(monkeypatch)
    values = evaluate_points_chunked(function, points)
    chunks = -(-points.shape[0] // chunk)
    assert len(rows) == gates * chunks
    for index in range(chunks):
        per_gate = rows[index * gates : (index + 1) * gates]
        slow = np.unique(points[index * chunk : (index + 1) * chunk, 8]).size
        assert per_gate[:12] == [3] * 12, per_gate
        assert per_gate[12] == 3 * slow, per_gate
        assert per_gate[13] == 3 * min(chunk, points.shape[0] - index * chunk)
    serial = [function(point) for point in points[::97]]
    np.testing.assert_allclose(values[::97], serial, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("build", ["data", "from_statevectors"])
def test_stack_the_engine_did_not_build_is_never_merged(monkeypatch, build):
    """A ``data=`` or ``from_statevectors`` stack starts with one slot
    per row, its values unread: repeated rows under equal rates and
    angles are still contracted separately, and each matches the serial
    oracle and its own one-row replay."""
    rng = np.random.default_rng(26)
    amplitudes = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
    rho = BatchedDensityMatrix.from_statevectors(np.repeat(amplitudes, 2, axis=0))
    if build == "data":
        rho = BatchedDensityMatrix(3, data=rho.data)
    start = rho.data.copy()
    skeleton, angles = _skeleton(3), np.zeros((4, 3))
    rows = _record_contracted_rows(monkeypatch)
    rho.evolve_circuits(skeleton, angles, NOISE)
    assert rows == [4] * len(skeleton.instructions)
    for index in range(4):
        serial = DensityMatrix(3, start[index])
        serial.evolve(_bound(skeleton, angles[index]), NOISE)
        np.testing.assert_allclose(rho.data[index], serial.data, atol=1e-12)
        alone = BatchedDensityMatrix(3, data=start[index : index + 1])
        alone.evolve_circuits(skeleton, angles[index : index + 1], NOISE)
        np.testing.assert_array_equal(rho.data[index], alone.data[0])


def test_a_written_or_evolved_stack_is_not_assumed_ground():
    """Only an untouched engine-built stack starts in shared slots: one
    written through the live ``data`` view, or evolved before, starts
    with a slot per row."""
    skeleton = _skeleton(3)
    angles = np.zeros((3, 3))
    written = BatchedDensityMatrix(3, batch_size=3)
    written.data[1] = _random_pure_stack(3, 1, seed=27).data[0]
    start = written.data.copy()
    written.evolve_circuits(skeleton, angles, NOISE)
    for index in range(3):
        alone = BatchedDensityMatrix(3, data=start[index : index + 1])
        alone.evolve_circuits(skeleton, angles[index : index + 1], NOISE)
        np.testing.assert_array_equal(written.data[index], alone.data[0])
    twice = BatchedDensityMatrix(3, batch_size=3).evolve_circuits(
        skeleton, _random_angles(3, np.random.default_rng(28)), NOISE
    )
    after_once = twice.data.copy()
    twice.evolve_circuits(skeleton, angles, NOISE)
    for index in range(3):
        alone = BatchedDensityMatrix(3, data=after_once[index : index + 1])
        alone.evolve_circuits(skeleton, angles[index : index + 1], NOISE)
        np.testing.assert_array_equal(twice.data[index], alone.data[0])


# -- measurement --------------------------------------------------------------


def test_probabilities_per_row_readout_matches_serial():
    skeleton = _skeleton(3)
    angles = _random_angles(4, np.random.default_rng(9))
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(
        skeleton, angles, NOISE
    )
    readout = np.array([0.0, 0.05, 0.2, 0.0])
    probs = rho.probabilities(readout)
    for index, row in enumerate(angles):
        reference = simulate_density(_bound(skeleton, row), NOISE)
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


@pytest.mark.parametrize(
    "ansatz",
    [
        TwoLocalAnsatz(sk_problem(4, seed=3).to_pauli_sum(), reps=1),
        UccsdAnsatz(lih_hamiltonian(), num_parameters=8),
    ],
    ids=["twolocal", "uccsd"],
)
def test_noisy_expectation_many_builds_no_circuit_per_row(monkeypatch, ansatz):
    """Noisy rows replay one skeleton against an angle matrix: a batch
    split over several density chunks builds one circuit per call, not
    one per row, and still matches the serial loop."""
    rng = np.random.default_rng(14)
    batch = rng.uniform(-np.pi, np.pi, size=(5, ansatz.num_parameters))
    models = [NOISE, NOISE.scaled(2.0), NOISE.scaled(3.0), NOISE, None]
    serial = [ansatz.expectation(row, noise=model) for row, model in zip(batch, models)]
    built = []
    circuit = ansatz.circuit

    def counting(parameters):
        built.append(parameters)
        return circuit(parameters)

    monkeypatch.setattr(ansatz, "circuit", counting)
    monkeypatch.setattr(ansatz_base, "default_density_batch_size", lambda n: 2)
    values = ansatz.expectation_many(batch, noise=models)
    assert len(built) == 1
    np.testing.assert_allclose(values, serial, atol=1e-12)


# -- hypothesis: channel invariants through circuit replay ---------------------

PROBS = st.floats(min_value=0.0, max_value=1.0)
MODELS = st.builds(NoiseModel, p1=PROBS, p2=PROBS)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), model=MODELS)
def test_shared_kraus_preserves_trace_and_purity_bound(seed, model):
    """Replaying circuits under one shared model — both depolarizing
    kinds, as the circuits mix 1q and 2q gates — keeps every row a valid
    state: trace ~ 1, purity <= 1."""
    angles = _random_angles(4, np.random.default_rng(seed))
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(
        _skeleton(3), angles, model
    )
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
    skeleton = _skeleton(3)
    angles = _random_angles(4, np.random.default_rng(seed))
    rho = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(
        skeleton, angles, models
    )
    np.testing.assert_allclose(rho.traces(), 1.0, atol=1e-10)
    assert np.all(rho.purities() <= 1.0 + 1e-9)
    noiseless = BatchedDensityMatrix(3, batch_size=4).evolve_circuits(
        skeleton, angles
    )
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
    angles = _random_angles(3, rng)
    shared = NoiseModel(p2=probability)
    per_row = [NoiseModel(p2=float(p)) for p in rng.uniform(0.0, 1.0, size=3)]
    for noise in (shared, per_row):
        rho = BatchedDensityMatrix(3, batch_size=3).evolve_circuits(
            _skeleton(3), angles, noise
        )
        np.testing.assert_allclose(rho.traces(), 1.0, atol=1e-10)
        assert np.all(rho.purities() <= 1.0 + 1e-9)
