"""Chemistry workloads (paper Table 3): H2 VQE landscapes with OSCAR.

Reconstructs a 2-D slice of the UCCSD H2 energy landscape, checks the
DCT sparsity that makes the reconstruction possible (paper Table 4),
and runs a VQE optimization on the interpolated reconstruction to find
the ground-state energy without further circuit executions.

Run with:  python examples/chemistry_vqe.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Cobyla,
    InterpolatedLandscape,
    OscarReconstructor,
    UccsdAnsatz,
    h2_hamiltonian,
    nrmse,
)
from repro.experiments.slices import random_slice, slice_generator
from repro.landscape import dct_sparsity


def main() -> None:
    hamiltonian = h2_hamiltonian()
    exact_ground = hamiltonian.ground_energy()
    print(f"H2 Hamiltonian: {len(hamiltonian)} Pauli terms, "
          f"exact ground energy {exact_ground:.4f} Ha")

    ansatz = UccsdAnsatz(hamiltonian, num_parameters=3)
    rng = np.random.default_rng(0)
    spec = random_slice(ansatz, points_per_axis=50, rng=rng)
    generator = slice_generator(ansatz, spec)

    truth = generator.grid_search()
    print(
        f"slice over parameters {spec.varying}: "
        f"{truth.circuit_executions} circuit executions for ground truth"
    )
    print(f"DCT sparsity (99% energy): {100 * dct_sparsity(truth.values):.3f}% "
          "of coefficients")

    oscar = OscarReconstructor(spec.grid, rng=0)
    reconstruction, report = oscar.reconstruct(generator, fraction=0.15)
    error = nrmse(truth.values, reconstruction.values)
    print(
        f"OSCAR: {report.num_samples} executions ({report.speedup:.1f}x "
        f"speedup), NRMSE {error:.4f}"
    )

    # VQE on the interpolated reconstruction: free optimizer queries.
    surrogate = InterpolatedLandscape(reconstruction)
    _, start = reconstruction.minimum()
    result = Cobyla(maxiter=200).minimize(surrogate, start)
    # Evaluate the found point with a real circuit.
    achieved = generator.evaluate_point(result.parameters)
    print(
        f"VQE on the reconstruction: slice-optimal energy {achieved:.4f} Ha "
        f"(free surrogate queries: {result.num_queries})"
    )
    slice_floor = truth.values.min()
    print(
        f"dense-grid slice minimum:  {slice_floor:.4f} Ha "
        f"(surrogate is within {abs(achieved - slice_floor):.4f} Ha)"
    )


if __name__ == "__main__":
    main()
