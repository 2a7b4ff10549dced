"""Compressed-sensing core: DCT basis, sparse solvers, reconstruction.

- :mod:`~repro.cs.dct` — orthonormal DCT transforms and sparsity metrics,
- :mod:`~repro.cs.solvers` — FISTA-Lasso, OMP, basis-pursuit LP,
- :mod:`~repro.cs.sampling` — random/stratified grid samplers,
- :mod:`~repro.cs.reconstruct` — partial-sample signal recovery with
  the FISTA, OMP and basis-pursuit solvers,
- :mod:`~repro.cs.engine` — the batched multi-landscape reconstruction
  engine (one vectorized FISTA loop over a stack of problems).
"""

from .dct import (
    BASES,
    dct_basis_matrix,
    dct_transform,
    dst_transform,
    energy_fraction_coefficients,
    idct_transform,
    idst_transform,
    inverse_transform,
    sparsity_fraction_for_energy,
    transform,
)
from .engine import ReconstructionEngine, reconstruct_signals
from .reconstruct import (
    ReconstructionConfig,
    available_solvers,
    reconstruct_signal,
    reconstruction_operators,
)
from .sampling import (
    flat_to_grid_indices,
    sample_count_for_fraction,
    stratified_indices,
    uniform_random_indices,
)
from .solvers import (
    SolverResult,
    auto_lambda,
    basis_pursuit_linprog,
    fista_lasso,
    omp,
    soft_threshold,
)

__all__ = [
    "BASES",
    "dct_basis_matrix",
    "dct_transform",
    "dst_transform",
    "idst_transform",
    "inverse_transform",
    "transform",
    "energy_fraction_coefficients",
    "idct_transform",
    "sparsity_fraction_for_energy",
    "ReconstructionConfig",
    "ReconstructionEngine",
    "available_solvers",
    "reconstruct_signal",
    "reconstruct_signals",
    "reconstruction_operators",
    "flat_to_grid_indices",
    "sample_count_for_fraction",
    "stratified_indices",
    "uniform_random_indices",
    "SolverResult",
    "auto_lambda",
    "basis_pursuit_linprog",
    "fista_lasso",
    "omp",
    "soft_threshold",
]
