"""Batched-vs-serial equivalence across ansatzes, noise and shots.

The full cross product — all three ansatzes (both observable paths) x
noise {off, on, per-row mixed} x shots {off, on} — plus hypothesis-style
randomized circuits.  Every test funnels through
:func:`harness.assert_engines_match`, so registering a new engine in
``harness.ENGINES`` automatically subjects it to this entire matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import (
    ansatz_cases,
    assert_engines_match,
    random_noise,
    random_parameter_batch,
    random_qaoa,
    random_twolocal,
    random_uccsd,
    slice_batch,
)
from repro.quantum import NoiseModel

pytestmark = pytest.mark.equivalence

CASES = ansatz_cases()
NOISE = NoiseModel(p1=0.004, p2=0.009, readout=0.02)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize(
    "noise", [None, NOISE], ids=["ideal", "noisy"]
)
@pytest.mark.parametrize("shots", [None, 96], ids=["exact", "shots"])
def test_all_ansatzes_noise_shots_matrix(case, noise, shots):
    ansatz = CASES[case]()
    # Stable per-case seed (str hash is randomized per process).
    rng = np.random.default_rng(sorted(CASES).index(case))
    batch = rng.uniform(-np.pi, np.pi, size=(6, ansatz.num_parameters))
    assert_engines_match(ansatz, batch, noise=noise, shots=shots)


@pytest.mark.parametrize("case", ["qaoa-maxcut-p1", "twolocal-sk", "uccsd-h2"])
@pytest.mark.parametrize("shots", [None, 64], ids=["exact", "shots"])
def test_per_row_noise_matches_serial(case, shots):
    """A mixed per-row noise sequence (the batched-ZNE folding shape)
    matches a serial loop with per-row models, draws included."""
    ansatz = CASES[case]()
    rng = np.random.default_rng(7)
    batch = rng.uniform(-np.pi, np.pi, size=(6, ansatz.num_parameters))
    rows = [None, NOISE, NOISE.scaled(2.0), None, NOISE.scaled(3.0), NOISE]
    assert_engines_match(ansatz, batch, noise=rows, shots=shots)


@pytest.mark.parametrize("case", ["twolocal-sk", "twolocal-h2", "uccsd-lih"])
@pytest.mark.parametrize("shots", [None, 64], ids=["exact", "shots"])
def test_slice_batch_with_mixed_per_row_noise_matches_serial(case, shots):
    """A slice-shaped batch (frozen parameters, a grid over the last
    two) under mixed per-row noise: the density engine's rows share
    their state up to the first varying gate, split per rate and angle,
    and every engine still matches the serial loop, draws included."""
    ansatz = CASES[case]()
    batch = slice_batch(ansatz, 3, seed=sorted(CASES).index(case))
    cycle = [NOISE, NOISE.scaled(2.0), None, NOISE.scaled(3.0)]
    rows = [cycle[index % len(cycle)] for index in range(batch.shape[0])]
    assert_engines_match(ansatz, batch, noise=rows, shots=shots)


def test_single_row_batches_match():
    """B=1 batches (the promotion path) agree for every ansatz."""
    for case, factory in CASES.items():
        ansatz = factory()
        point = np.linspace(-1.0, 1.0, ansatz.num_parameters)
        assert_engines_match(ansatz, point[None, :])


# -- hypothesis-style randomized circuits -------------------------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_qaoa_circuits(seed):
    ansatz = random_qaoa(seed)
    rng = np.random.default_rng(seed)
    batch = random_parameter_batch(ansatz, rng)
    assert_engines_match(ansatz, batch)
    assert_engines_match(ansatz, batch, noise=random_noise(seed))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_twolocal_circuits(seed):
    ansatz = random_twolocal(seed)
    rng = np.random.default_rng(seed)
    batch = random_parameter_batch(ansatz, rng)
    assert_engines_match(ansatz, batch)
    assert_engines_match(ansatz, batch, shots=32, seed=seed)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_uccsd_circuits(seed):
    """Randomized excitation layouts (singles anywhere, doubles on any
    4-qubit window) keep the batched gate stacks aligned with the
    serial circuit."""
    ansatz = random_uccsd(seed)
    rng = np.random.default_rng(seed)
    batch = random_parameter_batch(ansatz, rng)
    assert_engines_match(ansatz, batch)
    assert_engines_match(ansatz, batch, shots=32, seed=seed)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10**5))
def test_random_noisy_twolocal_density_rows(seed):
    """Noisy Two-local rows route through the density engine in both
    the serial loop and the batched path's noisy-row branch."""
    ansatz = random_twolocal(seed)
    rng = np.random.default_rng(seed)
    batch = random_parameter_batch(ansatz, rng, max_rows=4)
    assert_engines_match(ansatz, batch, noise=random_noise(seed))
