"""Sparse-recovery solvers for compressed sensing.

The measurement model is ``y = A s`` where ``A = R . Psi``: ``Psi`` is
the orthonormal (inverse-)DCT synthesis operator and ``R`` restricts the
full signal to the sampled grid indices.  The solvers below recover a
sparse ``s`` from far fewer measurements than unknowns:

- :func:`fista_lasso` — FISTA (accelerated proximal gradient) on the
  Lasso objective ``1/2 ||A s - y||^2 + lam ||s||_1``; the default and
  the only solver used at landscape scale (matrix-free).
- :func:`omp` — Orthogonal Matching Pursuit, greedy column selection;
  exact for very sparse signals, used for ablations.
- :func:`basis_pursuit_linprog` — equality-constrained basis pursuit as
  a linear program (scipy HiGHS); the classical formulation in the
  paper's Eq. 7, practical only for small systems so used in tests and
  ablations.

All operators are passed as callables so no ``n x n`` matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize

__all__ = [
    "SolverResult",
    "auto_lambda",
    "fista_lasso",
    "omp",
    "basis_pursuit_linprog",
    "soft_threshold",
]

Operator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverResult:
    """Outcome of a sparse-recovery solve.

    Attributes:
        coefficients: recovered sparse coefficient array.
        iterations: iterations actually performed.
        converged: True if the stopping tolerance was met.
        objective: final objective value (solver-specific).
    """

    coefficients: np.ndarray
    iterations: int
    converged: bool
    objective: float


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Proximal operator of ``threshold * ||.||_1`` (soft shrinkage)."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def auto_lambda(correlation: np.ndarray, penalize_dc: bool = False) -> float:
    """The continuation-free L1-penalty heuristic ``0.01 * ||A^T y||_inf``.

    Under the DCT basis (``penalize_dc=False``) the DC coefficient is
    excluded from the max — it carries the landscape mean and would
    otherwise dominate the scale.  Bases without a DC component (DST)
    must pass ``penalize_dc=True`` so every coefficient participates.
    """
    magnitudes = np.abs(correlation).reshape(-1)
    if penalize_dc or magnitudes.size == 1:
        scale = float(np.max(magnitudes))
    else:
        scale = float(np.max(magnitudes[1:]))
    return 0.01 * scale if scale > 0 else 1e-12


def fista_lasso(
    forward: Operator,
    adjoint: Operator,
    measurements: np.ndarray,
    shape: tuple[int, ...],
    lam: float | None = None,
    max_iterations: int = 400,
    tolerance: float = 1e-6,
    penalize_dc: bool = False,
    initial: np.ndarray | None = None,
) -> SolverResult:
    """FISTA on the Lasso objective, matrix-free.

    The step size is 1, the Lipschitz constant of ``A^T A`` when ``A``
    restricts an orthonormal synthesis to the sampled indices.

    Args:
        forward: ``A``: coefficient array of ``shape`` -> measurement vector.
        adjoint: ``A^T``: measurement vector -> coefficient array.
        measurements: observed values ``y``.
        shape: coefficient-array shape (the landscape grid shape).
        lam: L1 penalty.  ``None`` selects ``0.01 * ||A^T y||_inf``
            (excluding the DC term under the DCT, see
            :func:`auto_lambda`), a standard continuation-free heuristic
            that tracks the measurement scale.
        max_iterations: iteration cap.
        tolerance: relative-change stopping tolerance on the iterate.
        penalize_dc: if False (default) the DC (all-zeros index)
            coefficient is not shrunk; landscapes have a large mean and
            shrinking it biases the reconstruction down.  Must be True
            for bases without a DC component (DST).
        initial: warm-start coefficients of ``shape`` (default zeros).
            Repeated solves over growing sample sets converge in far
            fewer iterations when seeded with the previous solution.
    """
    measurements = np.asarray(measurements, dtype=float).reshape(-1)
    if lam is None:
        lam = auto_lambda(adjoint(measurements), penalize_dc)
    if initial is None:
        coefficients = np.zeros(shape)
    else:
        coefficients = np.array(initial, dtype=float).reshape(shape)
    momentum = coefficients.copy()
    t_previous = 1.0
    converged = False
    iteration = 0
    dc_index = (0,) * len(shape)
    for iteration in range(1, max_iterations + 1):
        residual = forward(momentum) - measurements
        candidate = momentum - adjoint(residual)
        updated = soft_threshold(candidate, lam)
        if not penalize_dc:
            updated[dc_index] = candidate[dc_index]
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_previous**2))
        momentum = updated + ((t_previous - 1.0) / t_next) * (updated - coefficients)
        change = np.linalg.norm(updated - coefficients)
        reference = max(np.linalg.norm(coefficients), 1e-12)
        coefficients = updated
        t_previous = t_next
        if change / reference < tolerance:
            converged = True
            break
    final_residual = forward(coefficients) - measurements
    objective = 0.5 * float(final_residual @ final_residual) + lam * float(
        np.abs(coefficients).sum()
    )
    return SolverResult(coefficients, iteration, converged, objective)


def omp(
    forward: Operator,
    adjoint: Operator,
    measurements: np.ndarray,
    shape: tuple[int, ...],
    max_atoms: int | None = None,
) -> SolverResult:
    """Orthogonal Matching Pursuit, matrix-free column generation.

    Greedily selects the coefficient most correlated with the residual,
    then re-fits all selected coefficients by least squares, until the
    relative residual drops below ``1e-8`` or ``max_atoms`` are chosen.
    Columns of ``A`` are generated on demand by pushing unit coefficient
    arrays through ``forward``.
    """
    measurements = np.asarray(measurements, dtype=float).reshape(-1)
    size = int(np.prod(shape))
    if max_atoms is None:
        max_atoms = max(1, measurements.size // 4)
    max_atoms = min(max_atoms, measurements.size, size)
    selected: list[int] = []
    columns: list[np.ndarray] = []
    residual = measurements.copy()
    solution = np.zeros(0)
    initial_norm = max(float(np.linalg.norm(measurements)), 1e-300)
    converged = False
    iteration = 0
    for iteration in range(1, max_atoms + 1):
        correlation = adjoint(residual).reshape(-1)
        correlation[selected] = 0.0
        best = int(np.argmax(np.abs(correlation)))
        if abs(correlation[best]) < 1e-14:
            converged = True
            break
        selected.append(best)
        unit = np.zeros(size)
        unit[best] = 1.0
        columns.append(forward(unit.reshape(shape)))
        matrix = np.stack(columns, axis=1)
        solution, *_ = np.linalg.lstsq(matrix, measurements, rcond=None)
        residual = measurements - matrix @ solution
        if np.linalg.norm(residual) / initial_norm < 1e-8:
            converged = True
            break
    coefficients = np.zeros(size)
    if selected:
        coefficients[selected] = solution
    return SolverResult(
        coefficients.reshape(shape),
        iteration,
        converged,
        float(np.linalg.norm(residual)),
    )


def basis_pursuit_linprog(
    sensing_matrix: np.ndarray,
    measurements: np.ndarray,
) -> SolverResult:
    """Equality-constrained basis pursuit ``min ||s||_1 s.t. As = y``.

    Standard LP lift: write ``s = u - v`` with ``u, v >= 0`` and
    minimise ``1^T (u + v)``.  Requires the dense sensing matrix, so
    this is for small problems (tests, ablations).
    """
    sensing_matrix = np.asarray(sensing_matrix, dtype=float)
    measurements = np.asarray(measurements, dtype=float).reshape(-1)
    m, n = sensing_matrix.shape
    if measurements.shape[0] != m:
        raise ValueError("measurement length does not match sensing matrix")
    cost = np.ones(2 * n)
    equality = np.hstack([sensing_matrix, -sensing_matrix])
    outcome = optimize.linprog(
        cost,
        A_eq=equality,
        b_eq=measurements,
        bounds=[(0, None)] * (2 * n),
        method="highs",
    )
    if not outcome.success:
        return SolverResult(np.zeros(n), 0, False, float("inf"))
    solution = outcome.x[:n] - outcome.x[n:]
    return SolverResult(
        solution, int(outcome.nit), True, float(np.abs(solution).sum())
    )
