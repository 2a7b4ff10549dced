"""Batched execution: generate a landscape in vectorized chunks.

Dense landscape generation is thousands of circuit executions — the
paper's Table 1 grids are 5k-32k points — and the serial loop pays the
full simulator dispatch cost at every point.  The batched execution
layer (``BatchedStatevector`` + ``Ansatz.expectation_many``) stacks
many parameter bindings along a leading batch axis and simulates them
in one vectorized pass per chunk: the QAOA cost layer becomes a single
broadcast phase multiply and the mixer two shared Walsh-Hadamard
transforms around a per-row phase lookup.  ``LandscapeGenerator``
drives it automatically — ``grid_search`` and ``evaluate_indices``
chunk grid points into memory-capped batches whenever the cost function
exposes the vectorized path.  Results match the serial loop to machine
precision; wall clock does not.

This example times a Table-1-sized grid search against the serial
loop, shows that results do not depend on the chunk size, and runs an
OSCAR reconstruction on top of the batched generator.

Run with:  python examples/batched_execution.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    LandscapeGenerator,
    OscarReconstructor,
    QaoaAnsatz,
    cost_function,
    nrmse,
    qaoa_grid,
    random_3_regular_maxcut,
)
from repro.landscape.generator import evaluate_points_chunked

def main() -> None:
    problem = random_3_regular_maxcut(10, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1)  # Table 1: 50 x 100 = 5000 executions
    function = cost_function(ansatz)

    # --- serial loop vs batched grid search -------------------------------
    points = grid.points_from_flat(np.arange(grid.size))
    start = time.perf_counter()
    serial = np.array([function(point) for point in points])
    serial_seconds = time.perf_counter() - start

    generator = LandscapeGenerator(function, grid)
    start = time.perf_counter()
    truth = generator.grid_search()
    batched_seconds = time.perf_counter() - start

    print(f"grid {grid.shape} ({grid.size} points), {ansatz.num_qubits} qubits")
    print(
        f"serial loop {serial_seconds:.3f}s vs batched {batched_seconds:.3f}s "
        f"({serial_seconds / batched_seconds:.1f}x faster), "
        f"max difference {np.abs(truth.flat() - serial).max():.2e}"
    )

    # --- chunk-size invariance ---------------------------------------------
    # The generator's chunk is cache-capped from the qubit count; pinning
    # a tiny chunk on the engine core shows results do not depend on it.
    sample = np.arange(0, grid.size, grid.size // 7)
    tiny = evaluate_points_chunked(function, points[sample], 3)
    assert np.allclose(tiny, truth.flat()[sample], atol=1e-12)
    print("chunk-size invariant: 3-point chunks match the default chunks")

    # --- OSCAR rides the same batched path --------------------------------
    oscar = OscarReconstructor(grid, rng=0)
    start = time.perf_counter()
    reconstruction, report = oscar.reconstruct(generator, fraction=0.05)
    oscar_seconds = time.perf_counter() - start
    print(
        f"OSCAR from {report.num_samples} batched executions "
        f"({100 * report.sampling_fraction:.0f}% of the grid, "
        f"{oscar_seconds:.3f}s): NRMSE "
        f"{nrmse(truth.values, reconstruction.values):.4f}"
    )


if __name__ == "__main__":
    main()
