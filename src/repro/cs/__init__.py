"""Compressed-sensing core: DCT basis, sparse solvers, reconstruction.

- :mod:`~repro.cs.dct` — orthonormal DCT/DST transforms and the
  energy-coefficient count,
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
    transform,
)
from .engine import ReconstructionEngine
from .reconstruct import (
    ReconstructionConfig,
    available_solvers,
    reconstruct_signal,
    reconstruction_operators,
)
from .sampling import (
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
    "ReconstructionConfig",
    "ReconstructionEngine",
    "available_solvers",
    "reconstruct_signal",
    "reconstruction_operators",
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
