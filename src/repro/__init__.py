"""OSCAR: compressed-sensing cost-landscape reconstruction for VQA debugging.

Reproduction of Liu, Hao & Tannu, *"Enabling High Performance Debugging
for Variational Quantum Algorithms using Compressed Sensing"*
(ISCA 2023, arXiv:2308.03213).

Quickstart::

    from repro import (
        QaoaAnsatz, random_3_regular_maxcut, qaoa_grid,
        LandscapeGenerator, cost_function, OscarReconstructor, nrmse,
    )

    problem = random_3_regular_maxcut(10, seed=0)
    ansatz = QaoaAnsatz(problem, p=1)
    grid = qaoa_grid(p=1, resolution=(30, 60))
    generator = LandscapeGenerator(cost_function(ansatz), grid)

    oscar = OscarReconstructor(grid, rng=0)
    landscape, report = oscar.reconstruct(generator, fraction=0.06)
    print(report.speedup, "x fewer circuit executions than grid search")

Subpackage map (the service stack is laid out in ``docs/architecture.md``):

- :mod:`repro.quantum` — simulation substrate (circuits, statevector,
  density matrix, trajectories, noise),
- :mod:`repro.problems` — MaxCut / SK / Ising / chemistry Hamiltonians,
- :mod:`repro.ansatz` — QAOA / Two-local / UCCSD,
- :mod:`repro.cs` — DCT basis, L1 solvers, sampling,
- :mod:`repro.landscape` — grids, generation, OSCAR reconstruction,
  metrics, interpolation,
- :mod:`repro.mitigation` — ZNE / readout / dynamical decoupling,
- :mod:`repro.optimizers` — ADAM / COBYLA / SPSA / GD / Nelder-Mead,
- :mod:`repro.hardware` — simulated QPUs, pools, latency models,
- :mod:`repro.parallel` — multi-QPU sampling, NCM, eager reconstruction,
- :mod:`repro.initialization` — OSCAR-based initial points,
- :mod:`repro.service` — sharded multiprocess execution + the
  content-addressed landscape store,
- :mod:`repro.datasets` — synthetic Sycamore landscapes,
- :mod:`repro.viz` — ASCII heatmaps,
- :mod:`repro.experiments` — table/figure regeneration runners.
"""

from .ansatz import Ansatz, QaoaAnsatz, TwoLocalAnsatz, UccsdAnsatz
from .cs import ReconstructionConfig, ReconstructionEngine
from .hardware import LatencyModel, QpuPool, SimulatedQPU
from .initialization import OscarInitializer
from .landscape import (
    GridAxis,
    InterpolatedLandscape,
    Landscape,
    LandscapeGenerator,
    OscarReconstructor,
    ParameterGrid,
    cost_function,
    nrmse,
    qaoa_grid,
)
from .mitigation import (
    ZneConfig,
    ZneCostFunction,
    zne_cost_function,
    zne_expectation,
)
from .optimizers import Adam, Cobyla, NelderMead, Spsa
from .parallel import NoiseCompensationModel, ParallelSampler, eager_reconstruct
from .problems import (
    IsingProblem,
    PauliString,
    PauliSum,
    h2_hamiltonian,
    lih_hamiltonian,
    maxcut_from_graph,
    mesh_maxcut,
    random_3_regular_maxcut,
    sk_problem,
)
from .quantum import BatchedStatevector, NoiseModel, QuantumCircuit, Statevector
from .service import LandscapeSpec, LandscapeStore, ShardedExecutor
from .utils import ensure_rng

__version__ = "1.0.0"

__all__ = [
    "Ansatz",
    "QaoaAnsatz",
    "TwoLocalAnsatz",
    "UccsdAnsatz",
    "ReconstructionConfig",
    "ReconstructionEngine",
    "LatencyModel",
    "QpuPool",
    "SimulatedQPU",
    "OscarInitializer",
    "GridAxis",
    "InterpolatedLandscape",
    "Landscape",
    "LandscapeGenerator",
    "OscarReconstructor",
    "ParameterGrid",
    "cost_function",
    "nrmse",
    "qaoa_grid",
    "ZneConfig",
    "ZneCostFunction",
    "zne_cost_function",
    "zne_expectation",
    "Adam",
    "Cobyla",
    "NelderMead",
    "Spsa",
    "NoiseCompensationModel",
    "ParallelSampler",
    "eager_reconstruct",
    "BatchedStatevector",
    "LandscapeSpec",
    "LandscapeStore",
    "ShardedExecutor",
    "ensure_rng",
    "IsingProblem",
    "PauliString",
    "PauliSum",
    "h2_hamiltonian",
    "lih_hamiltonian",
    "maxcut_from_graph",
    "mesh_maxcut",
    "random_3_regular_maxcut",
    "sk_problem",
    "NoiseModel",
    "QuantumCircuit",
    "Statevector",
    "__version__",
]
