"""Signal reconstruction from partial grid samples.

This module connects the DCT basis and the sparse solvers into the
operation OSCAR performs: given the values of a landscape at a small set
of grid indices, recover the full landscape.

The synthesis operator is the orthonormal inverse DCT; the measurement
operator restricts the synthesised signal to the sampled flat indices.
Because the basis is orthonormal, the adjoint embeds the residual at the
sampled indices and applies the forward DCT — both matrix-free.

:attr:`ReconstructionConfig.solver` picks one of three built-in solvers
(``fista``, ``omp``, ``bp``; see :func:`available_solvers`).  The
FISTA path takes the unit step that the orthonormal basis makes exact
and supports warm starts (``warm_start=`` on
:func:`reconstruct_signal`).  Reconstructing *many* landscapes
at once goes through :class:`~repro.cs.engine.ReconstructionEngine`,
which runs one vectorized FISTA loop over a whole stack of problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ..utils import is_finite_real
from .dct import BASES, dct_basis_matrix, inverse_transform, transform
from .solvers import SolverResult, basis_pursuit_linprog, fista_lasso, omp

__all__ = [
    "ReconstructionConfig",
    "available_solvers",
    "reconstruct_signal",
    "reconstruction_operators",
    "validate_sample_set",
]


def validate_sample_set(
    size: int,
    flat_indices: np.ndarray,
    values: np.ndarray,
    context: str = "",
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise and validate one ``(flat_indices, values)`` sample set.

    The single validator shared by the serial path
    (:meth:`~repro.landscape.reconstructor.OscarReconstructor.reconstruct_from_samples`)
    and the batched engine, so both reject the same inputs with the
    same messages (indices through
    :func:`~repro.landscape.grid.validate_flat_indices`).  ``context``
    prefixes errors (e.g. ``"problem 3"`` when validating a stack).

    Returns:
        The indices as an int64 array and the values as a flat float
        array.
    """
    from ..landscape.grid import validate_flat_indices

    prefix = f"{context}: " if context else ""
    try:
        flat_indices = validate_flat_indices(size, flat_indices).reshape(-1)
    except ValueError as error:
        raise ValueError(prefix + str(error)) from None
    values = np.asarray(values, dtype=float).reshape(-1)
    if flat_indices.shape[0] != values.shape[0]:
        raise ValueError(prefix + "indices and values must have matching lengths")
    if flat_indices.size == 0:
        raise ValueError(prefix + "need at least one sample index")
    if np.unique(flat_indices).shape[0] != flat_indices.shape[0]:
        raise ValueError(prefix + "sample indices contain duplicates")
    if not np.all(np.isfinite(values)):
        bad = int(np.sum(~np.isfinite(values)))
        raise ValueError(
            prefix + f"{bad} sample value(s) are non-finite; failed circuit "
            "executions must be dropped (see eager reconstruction) "
            "before reconstructing"
        )
    return flat_indices, values


@dataclass(frozen=True)
class ReconstructionConfig:
    """Knobs of the CS reconstruction.

    Every field is checked when the config is built, so a bad value
    (an unknown solver, a non-positive iteration cap, a negative or
    infinite ``lam``, ...) raises ``ValueError`` before any sample is drawn.

    Attributes:
        solver: ``"fista"`` (default), ``"omp"`` or ``"bp"`` (see
            :func:`available_solvers`).
        lam: L1 penalty for FISTA; ``None`` = auto heuristic.
        max_iterations: FISTA iteration cap.
        tolerance: FISTA relative-change stopping tolerance.
        max_atoms: OMP atom cap; ``None`` = measurements // 4.
        basis: sparsifying basis, ``"dct"`` (paper default) or ``"dst"``
            (the basis-choice ablation).
        penalize_dc: whether the L1 shrinkage (and the auto-``lam``
            heuristic's max) applies to the flat-index-0 coefficient.
            ``None`` (default) resolves by basis: the DCT's index 0 is
            the DC term carrying the landscape mean, so it is exempt;
            the DST has no DC component, so everything is penalized.
    """

    solver: str = "fista"
    lam: float | None = None
    max_iterations: int = 400
    tolerance: float = 1e-6
    max_atoms: int | None = None
    basis: str = "dct"
    penalize_dc: bool | None = None

    def __post_init__(self) -> None:
        if self.solver not in _SOLVERS:
            raise ValueError(
                f"unknown solver {self.solver!r}; choose from {available_solvers()}"
            )
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}; choose from {BASES}")
        iterations = self.max_iterations
        if (
            isinstance(iterations, bool)
            or not isinstance(iterations, Integral)
            or iterations < 1
        ):
            raise ValueError(
                f"max_iterations must be a positive integer, got {iterations!r}"
            )
        tolerance = self.tolerance
        if not (is_finite_real(tolerance) and tolerance > 0):
            raise ValueError(
                f"tolerance must be a positive finite number, got {tolerance!r}"
            )
        lam = self.lam
        if lam is not None and not (is_finite_real(lam) and lam >= 0):
            raise ValueError(f"lam must be a finite number >= 0 or None, got {lam!r}")
        atoms = self.max_atoms
        if atoms is not None and (
            isinstance(atoms, bool) or not isinstance(atoms, Integral) or atoms < 1
        ):
            raise ValueError(
                f"max_atoms must be a positive integer or None, got {atoms!r}"
            )
        if self.penalize_dc is not None and not isinstance(self.penalize_dc, bool):
            raise ValueError(
                f"penalize_dc must be a bool or None, got {self.penalize_dc!r}"
            )

    def resolved_penalize_dc(self) -> bool:
        """The effective DC-penalty choice (basis-dependent default)."""
        if self.penalize_dc is not None:
            return self.penalize_dc
        return self.basis != "dct"


def reconstruction_operators(
    shape: tuple[int, ...], flat_indices: np.ndarray, basis: str = "dct"
):
    """Build the matrix-free ``A`` and ``A^T`` for a sampled grid.

    Returns:
        ``(forward, adjoint)`` where ``forward`` maps a coefficient
        array of ``shape`` to the sampled values and ``adjoint`` maps a
        sample vector back to coefficient space.
    """
    from ..landscape.grid import validate_flat_indices

    size = int(np.prod(shape))
    flat_indices = validate_flat_indices(size, flat_indices)
    if flat_indices.size == 0:
        raise ValueError("need at least one sample index")

    def forward(coefficients: np.ndarray) -> np.ndarray:
        signal = inverse_transform(coefficients.reshape(shape), basis)
        return signal.reshape(-1)[flat_indices]

    def adjoint(residual: np.ndarray) -> np.ndarray:
        embedded = np.zeros(size)
        embedded[flat_indices] = residual
        return transform(embedded.reshape(shape), basis)

    return forward, adjoint


def available_solvers() -> tuple[str, ...]:
    """Names accepted by :attr:`ReconstructionConfig.solver`."""
    return tuple(sorted(_SOLVERS))


def reconstruct_signal(
    shape: tuple[int, ...],
    flat_indices: np.ndarray,
    values: np.ndarray,
    config: ReconstructionConfig | None = None,
    warm_start: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverResult]:
    """Recover a full signal from samples at ``flat_indices``.

    Args:
        shape: full grid shape of the signal.
        flat_indices: sampled positions (flat, row-major).
        values: measured signal values at those positions.
        config: solver configuration.
        warm_start: optional initial coefficient array (FISTA only) —
            e.g. the previous solution when re-solving with a grown
            sample set, as the adaptive reconstructor does.

    Returns:
        ``(signal, solver_result)`` — the reconstructed array of
        ``shape`` and the solver diagnostics.
    """
    from ..landscape.grid import validate_flat_indices

    config = config or ReconstructionConfig()
    flat_indices = validate_flat_indices(int(np.prod(shape)), flat_indices)
    values = np.asarray(values, dtype=float).reshape(-1)
    if flat_indices.shape[0] != values.shape[0]:
        raise ValueError("indices and values must have matching lengths")
    result = _SOLVERS[config.solver](shape, flat_indices, values, config, warm_start)
    signal = inverse_transform(result.coefficients.reshape(shape), config.basis)
    return signal, result


def _solve_fista(
    shape: tuple[int, ...],
    flat_indices: np.ndarray,
    values: np.ndarray,
    config: ReconstructionConfig,
    warm_start: np.ndarray | None,
) -> SolverResult:
    """Matrix-free FISTA (the landscape-scale default)."""
    forward, adjoint = reconstruction_operators(shape, flat_indices, config.basis)
    return fista_lasso(
        forward,
        adjoint,
        values,
        shape,
        lam=config.lam,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
        penalize_dc=config.resolved_penalize_dc(),
        initial=warm_start,
    )


def _solve_omp(
    shape: tuple[int, ...],
    flat_indices: np.ndarray,
    values: np.ndarray,
    config: ReconstructionConfig,
    warm_start: np.ndarray | None,
) -> SolverResult:
    """Orthogonal matching pursuit (ablations)."""
    forward, adjoint = reconstruction_operators(shape, flat_indices, config.basis)
    return omp(forward, adjoint, values, shape, max_atoms=config.max_atoms)


def _solve_basis_pursuit(
    shape: tuple[int, ...],
    flat_indices: np.ndarray,
    values: np.ndarray,
    config: ReconstructionConfig,
    warm_start: np.ndarray | None,
) -> SolverResult:
    """Dense basis-pursuit LP (small grids only)."""
    if config.basis != "dct":
        raise ValueError("basis pursuit path only supports the DCT basis")
    size = int(np.prod(shape))
    if size > 4096:
        raise ValueError(
            "basis pursuit materialises the dense sensing matrix; "
            f"grid of {size} points is too large (limit 4096)"
        )
    # Dense synthesis matrix for the N-D separable DCT via Kronecker.
    synthesis = np.array([[1.0]])
    for length in shape:
        synthesis = np.kron(synthesis, dct_basis_matrix(length))
    sensing = synthesis[flat_indices, :]
    result = basis_pursuit_linprog(sensing, values)
    return SolverResult(
        result.coefficients.reshape(shape),
        result.iterations,
        result.converged,
        result.objective,
    )


#: Every solver takes ``(shape, flat_indices, values, config,
#: warm_start)`` and returns coefficients in ``config.basis``.
_SOLVERS = {"fista": _solve_fista, "omp": _solve_omp, "bp": _solve_basis_pursuit}
