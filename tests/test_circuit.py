"""Unit tests for repro.quantum.circuit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.quantum import QuantumCircuit, Statevector
from repro.quantum.circuit import _GATE_ARITY, _PARAM_COUNT, CircuitError
from repro.quantum.gates import gate_matrix


def bell_circuit() -> QuantumCircuit:
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    return qc


def test_circuit_requires_at_least_one_qubit():
    with pytest.raises(CircuitError):
        QuantumCircuit(0)


def test_append_unknown_gate_raises():
    with pytest.raises(CircuitError):
        QuantumCircuit(2).append("foo", 0)


def test_append_wrong_arity_raises():
    with pytest.raises(CircuitError):
        QuantumCircuit(2).append("cx", (0,))


def test_append_duplicate_operands_raises():
    with pytest.raises(CircuitError):
        QuantumCircuit(2).append("cx", (1, 1))


def test_append_out_of_range_qubit_raises():
    with pytest.raises(CircuitError):
        QuantumCircuit(2).x(5)


def test_append_wrong_param_count_raises():
    with pytest.raises(CircuitError):
        QuantumCircuit(1).append("rx", 0, ())
    with pytest.raises(CircuitError):
        QuantumCircuit(1).append("x", 0, (0.3,))


def test_depth_parallel_gates_share_a_layer():
    qc = QuantumCircuit(4)
    for q in range(4):
        qc.h(q)
    assert qc.depth() == 1
    qc.cx(0, 1)
    qc.cx(2, 3)
    assert qc.depth() == 2


def test_depth_serial_chain():
    qc = QuantumCircuit(3)
    qc.cx(0, 1)
    qc.cx(1, 2)
    qc.cx(0, 1)
    assert qc.depth() == 3


def test_count_gates_and_two_qubit_count():
    qc = bell_circuit()
    qc.rx(0.1, 0)
    assert qc.count_gates() == {"h": 1, "cx": 1, "rx": 1}
    assert qc.num_two_qubit_gates == 1


def test_append_rejects_non_numeric_angle():
    """A symbolic or otherwise non-numeric angle fails at ``append``,
    not later inside a simulator."""
    for angle in ("theta", None, [0.3], object()):
        with pytest.raises(CircuitError, match="numeric angle"):
            QuantumCircuit(2).rx(angle, 0)
        with pytest.raises(CircuitError, match="numeric angle"):
            QuantumCircuit(2).rzz(angle, 0, 1)


def test_append_stores_angles_as_floats():
    qc = QuantumCircuit(2)
    qc.rx(np.float64(0.25), 0).ry(3, 1).rzz(np.int64(-2), 0, 1)
    params = [instruction.params for instruction in qc]
    assert params == [(0.25,), (3.0,), (-2.0,)]
    assert all(type(value) is float for (value,) in params)


def test_every_appendable_gate_resolves_to_a_matrix_of_its_arity():
    for name, arity in _GATE_ARITY.items():
        qc = QuantumCircuit(2)
        angles = (0.4,) * _PARAM_COUNT.get(name, 0)
        qc.append(name, tuple(range(arity)), angles)
        ((_, _, matrix),) = qc.resolved_operations()
        assert matrix.shape == (1 << arity, 1 << arity), name
        assert np.allclose(matrix, gate_matrix(name, angles)), name


def test_compose_concatenates():
    left = QuantumCircuit(2).h(0)
    right = QuantumCircuit(2).cx(0, 1)
    combined = left.compose(right)
    assert [i.name for i in combined] == ["h", "cx"]
    assert len(left) == 1  # compose does not mutate


def test_compose_width_mismatch_raises():
    with pytest.raises(CircuitError):
        QuantumCircuit(2).compose(QuantumCircuit(3))


def test_inverse_undoes_circuit():
    qc = QuantumCircuit(3)
    qc.h(0)
    qc.cx(0, 1)
    qc.rx(0.7, 2)
    qc.rzz(1.1, 1, 2)
    qc.s(0)
    qc.sdg(1)
    identity_circuit = qc.compose(qc.inverse())
    state = Statevector(3).evolve(identity_circuit)
    expected = Statevector(3)
    assert state.fidelity(expected) == pytest.approx(1.0, abs=1e-10)


def test_folding_preserves_action():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    qc.rx(0.3, 1)
    folded = qc.folded(3)
    assert len(folded) == 3 * len(qc)
    original = Statevector(2).evolve(qc)
    tripled = Statevector(2).evolve(folded)
    assert original.fidelity(tripled) == pytest.approx(1.0, abs=1e-10)


def test_folding_rejects_even_and_nonpositive_factors():
    qc = QuantumCircuit(1).x(0)
    for factor in (0, 2, -1):
        with pytest.raises(CircuitError):
            qc.folded(factor)


def test_folding_scale_one_is_identity_transform():
    qc = QuantumCircuit(1).x(0)
    assert len(qc.folded(1)) == 1


def test_copy_is_independent():
    qc = QuantumCircuit(1).x(0)
    other = qc.copy()
    other.h(0)
    assert len(qc) == 1
    assert len(other) == 2
