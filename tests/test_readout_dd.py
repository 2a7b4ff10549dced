"""Tests for readout mitigation and dynamical decoupling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigation import (
    ReadoutMitigator,
    insert_dynamical_decoupling,
    schedule_layers,
)
from repro.quantum import QuantumCircuit, Statevector, simulate


# -- readout mitigation ----------------------------------------------------------


def test_mitigator_validation():
    with pytest.raises(ValueError):
        ReadoutMitigator(2, 0.5)
    with pytest.raises(ValueError):
        ReadoutMitigator(2, -0.1)


def test_confusion_matrix_is_stochastic():
    matrix = ReadoutMitigator(2, 0.1).confusion_matrix()
    assert matrix.shape == (4, 4)
    assert np.allclose(matrix.sum(axis=0), 1.0)


@given(p=st.floats(0.0, 0.4), seed=st.integers(0, 100))
@settings(max_examples=30)
def test_corrupt_then_mitigate_roundtrip(p, seed):
    mitigator = ReadoutMitigator(3, p)
    rng = np.random.default_rng(seed)
    truth = rng.dirichlet(np.ones(8))
    observed = mitigator.corrupt(truth)
    recovered = mitigator.mitigate_probabilities(observed)
    assert np.allclose(recovered, truth, atol=1e-9)


def test_corrupt_matches_confusion_matrix():
    mitigator = ReadoutMitigator(2, 0.08)
    rng = np.random.default_rng(1)
    truth = rng.dirichlet(np.ones(4))
    assert np.allclose(
        mitigator.corrupt(truth), mitigator.confusion_matrix() @ truth
    )


def test_mitigate_clips_and_renormalises():
    mitigator = ReadoutMitigator(1, 0.2)
    # An observed distribution impossible under the channel produces
    # negative quasi-probabilities that clipping must remove.
    observed = np.array([0.05, 0.95])
    recovered = mitigator.mitigate_probabilities(observed)
    assert np.all(recovered >= 0.0)
    assert recovered.sum() == pytest.approx(1.0)


def test_mitigated_expectation_closer_to_truth():
    mitigator = ReadoutMitigator(2, 0.1)
    diagonal = np.array([1.0, -1.0, -1.0, 1.0])  # ZZ
    truth = np.array([0.7, 0.1, 0.1, 0.1])
    exact = float(truth @ diagonal)
    observed = mitigator.corrupt(truth)
    raw = float(observed @ diagonal)
    mitigated = mitigator.mitigate_expectation_diagonal(observed, diagonal)
    assert abs(mitigated - exact) < abs(raw - exact)


def test_distribution_length_validation():
    with pytest.raises(ValueError):
        ReadoutMitigator(2, 0.1).mitigate_probabilities(np.ones(3) / 3)


# -- dynamical decoupling -----------------------------------------------------------


def test_schedule_layers_matches_depth():
    qc = QuantumCircuit(3)
    qc.h(0)
    qc.h(1)
    qc.cx(0, 1)
    qc.x(2)
    layers = schedule_layers(qc)
    assert len(layers) == qc.depth()
    assert len(layers[0]) == 3  # h, h, x all in layer 0


def test_dd_fills_idle_qubits():
    qc = QuantumCircuit(3)
    qc.cx(0, 1)  # qubit 2 idle
    decoupled = insert_dynamical_decoupling(qc)
    counts = decoupled.count_gates()
    assert counts.get("x", 0) == 2  # one X-X pair on qubit 2


def test_dd_preserves_circuit_action():
    qc = QuantumCircuit(4)
    qc.h(0)
    qc.cx(0, 1)
    qc.rx(0.37, 3)
    qc.rzz(0.9, 1, 2)
    original = simulate(qc)
    decoupled = simulate(insert_dynamical_decoupling(qc))
    assert original.fidelity(decoupled) == pytest.approx(1.0, abs=1e-10)


def test_dd_no_idle_no_insertion():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.h(1)
    decoupled = insert_dynamical_decoupling(qc)
    assert len(decoupled) == len(qc)
