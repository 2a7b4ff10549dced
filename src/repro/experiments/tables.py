"""Runners for the paper's Tables 2, 3 and 4.

Each runner returns a list of result rows mirroring the paper's table
layout, so the benchmark harness prints paper-style tables that read
side by side with the paper's (``benchmarks/test_table2_*.py`` to
``test_table4_*.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.base import Ansatz
from ..ansatz.qaoa import QaoaAnsatz
from ..ansatz.twolocal import TwoLocalAnsatz
from ..ansatz.uccsd import UccsdAnsatz
from ..landscape.metrics import dct_sparsity, nrmse
from ..landscape.reconstructor import OscarReconstructor
from ..problems.chemistry import h2_hamiltonian, lih_hamiltonian
from ..problems.maxcut import random_3_regular_maxcut
from ..problems.sk import sk_problem
from .slices import random_slice, slice_generator

__all__ = [
    "SliceReconstructionRow",
    "run_table2",
    "run_table3",
    "run_table4",
    "slice_reconstruction_error",
]


@dataclass(frozen=True)
class SliceReconstructionRow:
    """One row of a Tables 2/3-style result."""

    problem: str
    ansatz: str
    num_qubits: int
    num_parameters: int
    points_per_axis: int
    nrmse: float
    dct_sparsity: float


def _qaoa_for_params(problem, num_parameters: int) -> QaoaAnsatz:
    if num_parameters % 2 != 0:
        raise ValueError("QAOA parameter count must be even")
    return QaoaAnsatz(problem, p=num_parameters // 2)


def _twolocal_for_params(hamiltonian, num_parameters: int) -> TwoLocalAnsatz:
    num_qubits = hamiltonian.num_qubits
    if num_parameters % num_qubits != 0:
        raise ValueError("Two-local parameter count must be a qubit multiple")
    return TwoLocalAnsatz(hamiltonian, reps=num_parameters // num_qubits - 1)


def slice_reconstruction_error(
    ansatz: Ansatz,
    points_per_axis: int,
    sampling_fraction: float = 0.35,
    repeats: int = 3,
    seed: int = 0,
    batch_size: int | None = None,
    workers: int = 1,
    daemon=None,
) -> tuple[float, float]:
    """Median (NRMSE, DCT-sparsity) over random 2-parameter slices.

    This is the Tables 2/3 protocol: repeat (random slice -> dense
    slice grid -> OSCAR reconstruction -> NRMSE) and aggregate.  The
    paper repeats 100 times; callers choose ``repeats`` to fit their
    budget.  Every ansatz here (QAOA, Two-local, UCCSD) has a native
    batched execution path, so the dense slice grids run vectorized in
    ``batch_size``-point chunks rather than a circuit per point.
    """
    rng = np.random.default_rng(seed)
    errors = []
    sparsities = []
    for _ in range(repeats):
        spec = random_slice(ansatz, points_per_axis, rng=rng)
        generator = slice_generator(
            ansatz, spec, batch_size=batch_size, workers=workers, daemon=daemon
        )
        truth = generator.grid_search()
        reconstructor = OscarReconstructor(spec.grid, rng=rng)
        reconstruction, _ = reconstructor.reconstruct(generator, sampling_fraction)
        errors.append(nrmse(truth.values, reconstruction.values))
        sparsities.append(dct_sparsity(truth.values))
    return float(np.median(errors)), float(np.median(sparsities))


def run_table2(
    repeats: int = 3,
    sampling_fraction: float = 0.35,
    seed: int = 0,
    batch_size: int | None = None,
    workers: int = 1,
    daemon=None,
) -> list[SliceReconstructionRow]:
    """Table 2: QAOA vs Two-local on 4/6-qubit MaxCut and SK problems.

    Configuration mirrors the paper: 8 parameters and 7 points/axis at
    n=4; 6 parameters and 14 points/axis at n=6.
    """
    rows = []
    cases = [
        ("3-reg MaxCut", 4, 8, 7),
        ("3-reg MaxCut", 6, 6, 14),
        ("SK Problem", 4, 8, 7),
        ("SK Problem", 6, 6, 14),
    ]
    for problem_name, num_qubits, num_parameters, points in cases:
        if problem_name.startswith("3-reg"):
            problem = random_3_regular_maxcut(num_qubits, seed=seed)
        else:
            problem = sk_problem(num_qubits, seed=seed)
        hamiltonian = problem.to_pauli_sum()
        for ansatz_name, ansatz in (
            ("QAOA", _qaoa_for_params(problem, num_parameters)),
            ("Two-local", _twolocal_for_params(hamiltonian, num_parameters)),
        ):
            error, sparsity = slice_reconstruction_error(
                ansatz,
                points,
                sampling_fraction,
                repeats,
                seed,
                batch_size,
                workers,
                daemon=daemon,
            )
            rows.append(
                SliceReconstructionRow(
                    problem=problem_name,
                    ansatz=ansatz_name,
                    num_qubits=num_qubits,
                    num_parameters=num_parameters,
                    points_per_axis=points,
                    nrmse=error,
                    dct_sparsity=sparsity,
                )
            )
    return rows


def run_table3(
    repeats: int = 3,
    sampling_fraction: float = 0.35,
    seed: int = 0,
    batch_size: int | None = None,
    workers: int = 1,
    daemon=None,
) -> list[SliceReconstructionRow]:
    """Table 3: H2 and LiH with Two-local and UCCSD ansatzes.

    Mirrors the paper's five rows, including the high-resolution
    H2/UCCSD row (50 points per axis) that shows error collapsing with
    a denser slice grid.
    """
    h2 = h2_hamiltonian()
    lih = lih_hamiltonian()
    cases = [
        ("H2", "Two-local", _twolocal_for_params(h2, 4), 14),
        ("LiH", "Two-local", _twolocal_for_params(lih, 8), 7),
        ("H2", "UCCSD", UccsdAnsatz(h2, num_parameters=3), 14),
        ("H2", "UCCSD", UccsdAnsatz(h2, num_parameters=3), 50),
        ("LiH", "UCCSD", UccsdAnsatz(lih, num_parameters=8), 7),
    ]
    rows = []
    for molecule, ansatz_name, ansatz, points in cases:
        error, sparsity = slice_reconstruction_error(
            ansatz,
            points,
            sampling_fraction,
            repeats,
            seed,
            batch_size,
            workers,
            daemon=daemon,
        )
        rows.append(
            SliceReconstructionRow(
                problem=molecule,
                ansatz=ansatz_name,
                num_qubits=ansatz.num_qubits,
                num_parameters=ansatz.num_parameters,
                points_per_axis=points,
                nrmse=error,
                dct_sparsity=sparsity,
            )
        )
    return rows


def run_table4(
    repeats: int = 3,
    seed: int = 0,
    batch_size: int | None = None,
    workers: int = 1,
    daemon=None,
) -> list[SliceReconstructionRow]:
    """Table 4: DCT-sparsity fractions across problems and ansatzes.

    Reports, for every (problem, ansatz) pair the paper covers, the
    median fraction of DCT coefficients needed for 99% of the slice
    landscape's energy.  Reconstruction is skipped (sparsity only).
    """
    rows: list[SliceReconstructionRow] = []
    rng = np.random.default_rng(seed)

    def sparsity_of(ansatz: Ansatz, points: int) -> float:
        fractions = []
        for _ in range(repeats):
            spec = random_slice(ansatz, points, rng=rng)
            truth = slice_generator(
                ansatz, spec, batch_size=batch_size, workers=workers, daemon=daemon
            ).grid_search()
            fractions.append(dct_sparsity(truth.values))
        return float(np.median(fractions))

    combinatorial = [
        ("3-reg MaxCut (n=4)", random_3_regular_maxcut(4, seed=seed), 8, 7),
        ("3-reg MaxCut (n=6)", random_3_regular_maxcut(6, seed=seed), 6, 14),
        ("SK Problem (n=4)", sk_problem(4, seed=seed), 8, 7),
        ("SK Problem (n=6)", sk_problem(6, seed=seed), 6, 14),
    ]
    for name, problem, num_parameters, points in combinatorial:
        hamiltonian = problem.to_pauli_sum()
        for ansatz_name, ansatz in (
            ("QAOA", _qaoa_for_params(problem, num_parameters)),
            ("Two-local", _twolocal_for_params(hamiltonian, num_parameters)),
        ):
            rows.append(
                SliceReconstructionRow(
                    problem=name,
                    ansatz=ansatz_name,
                    num_qubits=problem.num_qubits,
                    num_parameters=num_parameters,
                    points_per_axis=points,
                    nrmse=float("nan"),
                    dct_sparsity=sparsity_of(ansatz, points),
                )
            )
    molecules = [
        ("H2 (n=2)", h2_hamiltonian(), "Two-local", 4, 14),
        ("H2 (n=2)", h2_hamiltonian(), "UCCSD", 3, 14),
        ("LiH (n=4)", lih_hamiltonian(), "Two-local", 8, 7),
        ("LiH (n=4)", lih_hamiltonian(), "UCCSD", 8, 7),
    ]
    for name, hamiltonian, ansatz_name, num_parameters, points in molecules:
        if ansatz_name == "Two-local":
            ansatz = _twolocal_for_params(hamiltonian, num_parameters)
        else:
            ansatz = UccsdAnsatz(hamiltonian, num_parameters=num_parameters)
        rows.append(
            SliceReconstructionRow(
                problem=name,
                ansatz=ansatz_name,
                num_qubits=hamiltonian.num_qubits,
                num_parameters=num_parameters,
                points_per_axis=points,
                nrmse=float("nan"),
                dct_sparsity=sparsity_of(ansatz, points),
            )
        )
    return rows
