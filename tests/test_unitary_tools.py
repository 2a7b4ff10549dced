"""Tests for ``circuit_unitary`` and ``circuits_equivalent``: an
independent Kronecker construction of a circuit's unitary that
statevector evolution and the gate identities are checked against."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantum import QuantumCircuit, simulate
from repro.quantum.unitary import circuit_unitary, circuits_equivalent


# -- circuit_unitary -----------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_unitary_matches_statevector_evolution(seed):
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(3)
    for _ in range(8):
        kind = rng.integers(0, 3)
        if kind == 0:
            qc.rx(float(rng.normal()), int(rng.integers(0, 3)))
        elif kind == 1:
            a, b = rng.choice(3, size=2, replace=False)
            qc.cx(int(a), int(b))
        else:
            a, b = rng.choice(3, size=2, replace=False)
            qc.rzz(float(rng.normal()), int(a), int(b))
    unitary = circuit_unitary(qc)
    # Column 0 of U is the state evolved from |000>.
    state = simulate(qc)
    assert np.allclose(unitary[:, 0], state.data, atol=1e-10)
    # Unitarity.
    assert np.allclose(unitary @ unitary.conj().T, np.eye(8), atol=1e-10)


def test_unitary_size_cap():
    qc = QuantumCircuit(12).h(0)
    with pytest.raises(ValueError):
        circuit_unitary(qc)


def test_circuits_equivalent_hxh_equals_z():
    left = QuantumCircuit(1).h(0).x(0).h(0)
    right = QuantumCircuit(1).s(0).s(0)  # S^2 = Z
    assert circuits_equivalent(left, right)


def test_circuits_equivalent_up_to_global_phase():
    import math

    left = QuantumCircuit(1).rx(math.pi, 0)   # = -i X
    right = QuantumCircuit(1).x(0)
    assert circuits_equivalent(left, right)


def test_circuits_equivalent_detects_difference():
    left = QuantumCircuit(2).cx(0, 1)
    right = QuantumCircuit(2).cx(1, 0)
    assert not circuits_equivalent(left, right)


def test_circuits_equivalent_width_mismatch():
    assert not circuits_equivalent(QuantumCircuit(1).x(0), QuantumCircuit(2).x(0))
