"""Landscape layer: grids, containers, generation, reconstruction, metrics.

This is the public core of the library:

- :class:`~repro.landscape.grid.ParameterGrid` / :func:`~repro.landscape.grid.qaoa_grid`,
- :class:`~repro.landscape.landscape.Landscape`,
- :class:`~repro.landscape.generator.LandscapeGenerator` (grid-search baseline),
- :class:`~repro.landscape.reconstructor.OscarReconstructor` (the paper's method),
- :class:`~repro.landscape.interpolate.InterpolatedLandscape`,
- :mod:`~repro.landscape.metrics` (NRMSE, D2, VoG, variance, DCT sparsity).
"""

from .adaptive import (
    AdaptiveConfig,
    AdaptiveOutcome,
    adaptive_reconstruct,
    holdout_error_estimate,
)
from .analysis import (
    ConvergenceReport,
    InitialPointReport,
    barren_plateau_fraction,
    basin_labels,
    check_convergence,
    find_local_minima,
    gradient_field,
    gradient_magnitudes,
    initial_point_quality,
)
from .generator import AnsatzCostFunction, LandscapeGenerator, cost_function
from .grid import GridAxis, ParameterGrid, qaoa_grid, validate_flat_indices
from .interpolate import InterpolatedLandscape
from .landscape import Landscape
from .metrics import (
    dct_sparsity,
    landscape_variance,
    nrmse,
    second_derivative,
    variance_of_gradient,
)
from .reconstructor import (
    OscarReconstructor,
    ReconstructionReport,
    sample_and_evaluate,
)
from .symmetry import (
    half_grid_indices,
    is_centrosymmetric_grid,
    mirror_flat_index,
    mirror_samples,
    symmetrize,
    time_reversal_symmetry_error,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveOutcome",
    "adaptive_reconstruct",
    "holdout_error_estimate",
    "ConvergenceReport",
    "InitialPointReport",
    "barren_plateau_fraction",
    "basin_labels",
    "check_convergence",
    "find_local_minima",
    "gradient_field",
    "gradient_magnitudes",
    "initial_point_quality",
    "AnsatzCostFunction",
    "LandscapeGenerator",
    "cost_function",
    "GridAxis",
    "ParameterGrid",
    "qaoa_grid",
    "validate_flat_indices",
    "InterpolatedLandscape",
    "Landscape",
    "dct_sparsity",
    "landscape_variance",
    "nrmse",
    "second_derivative",
    "variance_of_gradient",
    "OscarReconstructor",
    "ReconstructionReport",
    "sample_and_evaluate",
    "half_grid_indices",
    "is_centrosymmetric_grid",
    "mirror_flat_index",
    "mirror_samples",
    "symmetrize",
    "time_reversal_symmetry_error",
]
