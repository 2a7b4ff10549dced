"""Batched ZNE / CDR equivalence with their serial per-point loops.

``ZneCostFunction.many`` folds the noise scale factors into the batch
axis (point-major, scale-minor — the serial evaluation order), so one
batched call per chunk must reproduce the per-(point, scale) loop draw
for draw.  ``CdrCostFunction.many`` routes its noisy evaluations
through ``expectation_many`` under the same contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import ATOL, qaoa_maxcut, slice_batch, twolocal_sk, uccsd_h2, uccsd_lih
from repro.landscape import LandscapeGenerator, qaoa_grid
from repro.landscape.generator import resolve_batch_size
from repro.mitigation import (
    CdrConfig,
    ZneConfig,
    cdr_cost_function,
    extrapolate,
    extrapolate_many,
    zne_cost_function,
)
from repro.quantum import NoiseModel

pytestmark = pytest.mark.equivalence

NOISE = NoiseModel(p1=0.003, p2=0.008)

ZNE_CONFIGS = {
    "richardson-123": ZneConfig((1.0, 2.0, 3.0), "richardson"),
    "linear-13": ZneConfig((1.0, 3.0), "linear"),
}


def _paired(factory, **kwargs):
    """Two identically-seeded instances: one for the serial loop, one
    for the batched path (the rng is bound at construction)."""
    return (
        factory(rng=np.random.default_rng(11), **kwargs),
        factory(rng=np.random.default_rng(11), **kwargs),
    )


@pytest.mark.parametrize("config_name", sorted(ZNE_CONFIGS))
@pytest.mark.parametrize("shots", [None, 128], ids=["exact", "shots"])
def test_zne_many_matches_serial_loop_qaoa(config_name, shots):
    ansatz = qaoa_maxcut(num_qubits=6)
    config = ZNE_CONFIGS[config_name]
    points = np.random.default_rng(0).uniform(-np.pi, np.pi, (9, 2))

    def factory(rng):
        return zne_cost_function(ansatz, NOISE, config, shots=shots, rng=rng)

    serial_fn, batched_fn = _paired(factory)
    serial = np.array([serial_fn(point) for point in points])
    batched = batched_fn.many(points)
    np.testing.assert_allclose(batched, serial, rtol=0.0, atol=ATOL)
    # Draw-order parity: both rng streams sit at the same position.
    assert serial_fn.rng.integers(1 << 63) == batched_fn.rng.integers(1 << 63)


@pytest.mark.parametrize(
    "make_ansatz", [twolocal_sk, uccsd_h2], ids=["twolocal", "uccsd"]
)
def test_zne_many_matches_serial_loop_density_ansatzes(make_ansatz):
    """ZNE over the density-engine ansatzes: every folded row is noisy,
    so the batched path's per-row density branch must equal the loop."""
    ansatz = make_ansatz()
    function = zne_cost_function(ansatz, NOISE, ZNE_CONFIGS["linear-13"])
    points = np.random.default_rng(1).uniform(
        -np.pi, np.pi, (4, ansatz.num_parameters)
    )
    serial = np.array([function(point) for point in points])
    np.testing.assert_allclose(
        function.many(points), serial, rtol=0.0, atol=ATOL
    )


@pytest.mark.parametrize(
    "make_ansatz", [twolocal_sk, uccsd_lih], ids=["twolocal", "uccsd"]
)
def test_zne_folded_slice_matches_serial_loop(make_ansatz):
    """ZNE over a landscape slice: the folded rows of one point differ
    only in their noise scale and the points only in the last two
    parameters, so the density replay shares one state per scale until
    the first varying gate.  The batch must still equal the loop."""
    ansatz = make_ansatz()
    function = zne_cost_function(ansatz, NOISE, ZNE_CONFIGS["richardson-123"])
    points = slice_batch(ansatz, 4, seed=5)
    serial = np.array([function(point) for point in points])
    np.testing.assert_allclose(
        function.many(points), serial, rtol=0.0, atol=ATOL
    )


def test_zne_grid_search_equals_pointwise_grid_search():
    """End to end through the landscape layer: a batched mitigated grid
    equals the same grid evaluated point by point."""
    ansatz = qaoa_maxcut(num_qubits=6)
    grid = qaoa_grid(p=1, resolution=(6, 12))
    function = zne_cost_function(ansatz, NOISE, ZNE_CONFIGS["richardson-123"])
    batched = LandscapeGenerator(function, grid).grid_search().flat()
    serial = np.array(
        [function(point) for _, point in grid.iter_points()]
    )
    np.testing.assert_allclose(batched, serial, rtol=0.0, atol=ATOL)


def test_zne_rows_per_point_shrinks_default_chunk():
    from repro.quantum import default_batch_size

    ansatz = qaoa_maxcut(num_qubits=6)
    function = zne_cost_function(ansatz, NOISE, ZNE_CONFIGS["richardson-123"])
    assert function.rows_per_point == 3
    # The folded (points x scales) execution batch stays within the
    # same cache budget an unmitigated chunk would use.
    assert resolve_batch_size(function, None) == max(1, default_batch_size(6) // 3)
    assert resolve_batch_size(function, 5) == 5  # user override wins


@pytest.mark.parametrize("shots", [None, 64], ids=["exact", "shots"])
def test_cdr_many_matches_serial_loop(shots):
    ansatz = qaoa_maxcut(num_qubits=6)
    points = np.random.default_rng(2).uniform(-np.pi, np.pi, (11, 2))

    def factory(rng):
        return cdr_cost_function(
            ansatz,
            NOISE,
            train_around=np.zeros(2),
            config=CdrConfig(num_training_circuits=8),
            shots=shots,
            rng=rng,
        )

    serial_fn, batched_fn = _paired(factory)
    serial = np.array([serial_fn(point) for point in points])
    np.testing.assert_allclose(
        batched_fn.many(points), serial, rtol=0.0, atol=ATOL
    )
    if shots is not None:
        assert serial_fn.rng.integers(1 << 63) == batched_fn.rng.integers(
            1 << 63
        )


@pytest.mark.parametrize("method", ["richardson", "linear"])
def test_extrapolate_many_matches_scalar_rows(method):
    rng = np.random.default_rng(3)
    scales = np.array([1.0, 2.0, 3.0])
    values = rng.normal(size=(13, 3))
    expected = np.array(
        [extrapolate(method, scales, row) for row in values]
    )
    np.testing.assert_allclose(
        extrapolate_many(method, scales, values),
        expected,
        rtol=0.0,
        atol=1e-12,
    )


def test_extrapolate_many_validates_shape_and_method():
    with pytest.raises(ValueError):
        extrapolate_many("richardson", [1.0, 2.0], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        extrapolate_many("cubic-spline", [1.0, 2.0], np.zeros((3, 2)))
    assert extrapolate_many("richardson", [1.0, 2.0], np.zeros((0, 2))).shape == (0,)


def test_zne_config_rejects_duplicate_scales():
    """Duplicate scale factors would make the batched and serial
    extrapolation paths diverge (Richardson rejects them, the linear
    fit degenerates), so the config refuses them up front."""
    with pytest.raises(ValueError):
        ZneConfig((1.0, 1.0, 3.0), "linear")
