"""Noise mitigation methods (the paper's Sec. 2.3 taxonomy).

Mitigation with supplementary shots:

- :mod:`~repro.mitigation.zne` — Zero-Noise Extrapolation with
  Richardson or linear extrapolation,
- :mod:`~repro.mitigation.cdr` — Clifford Data Regression,
- :mod:`~repro.mitigation.pec` — Probabilistic Error Cancellation.

Shot-frugal mitigation:

- :mod:`~repro.mitigation.readout` — readout confusion-matrix inversion,
- :mod:`~repro.mitigation.dd` — dynamical-decoupling circuit pass.
"""

from .cdr import (
    CdrConfig,
    CdrCostFunction,
    CliffordDataRegression,
    cdr_cost_function,
    snap_to_clifford_angles,
)
from .dd import insert_dynamical_decoupling, schedule_layers
from .pec import PecEstimator, inverse_depolarizing_quasiprobability, pec_gamma_factor
from .readout import ReadoutMitigator
from .zne import (
    ZneConfig,
    ZneCostFunction,
    extrapolate,
    extrapolate_many,
    linear_extrapolate,
    richardson_extrapolate,
    zne_cost_function,
    zne_expectation,
)

__all__ = [
    "CdrConfig",
    "CdrCostFunction",
    "CliffordDataRegression",
    "cdr_cost_function",
    "snap_to_clifford_angles",
    "PecEstimator",
    "inverse_depolarizing_quasiprobability",
    "pec_gamma_factor",
    "insert_dynamical_decoupling",
    "schedule_layers",
    "ReadoutMitigator",
    "ZneConfig",
    "ZneCostFunction",
    "extrapolate",
    "extrapolate_many",
    "linear_extrapolate",
    "richardson_extrapolate",
    "zne_cost_function",
    "zne_expectation",
]
