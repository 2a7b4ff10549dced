"""Quantum simulation substrate: gates, circuits, state engines, noise.

This subpackage replaces the Qiskit/Cirq dependency of the original
OSCAR implementation with a self-contained simulator stack:

- :mod:`~repro.quantum.gates` — gate matrices for the 12 gates the
  ansatz builders emit, plus the Pauli matrices,
- :mod:`~repro.quantum.circuit` — the circuit IR (float angles;
  compose/inverse/fold),
- :mod:`~repro.quantum.statevector` — exact pure-state engine,
- :mod:`~repro.quantum.batched` — batched pure-state engine (many
  parameter bindings per vectorized pass),
- :mod:`~repro.quantum.density` — exact noisy engine (depolarizing
  Kraus channels),
- :mod:`~repro.quantum.batched_density` — batched exact noisy engine
  (many noisy rows per vectorized pass, per-row noise models),
- :mod:`~repro.quantum.noise` — depolarizing/readout noise models.
"""

from .batched import BatchedStatevector, default_batch_size
from .batched_density import BatchedDensityMatrix, default_density_batch_size
from .circuit import CircuitError, Instruction, QuantumCircuit
from .density import DensityMatrix, simulate_density
from .noise import IDEAL, NoiseModel, global_depolarizing_factor
from .statevector import Statevector, simulate

__all__ = [
    "BatchedStatevector",
    "default_batch_size",
    "BatchedDensityMatrix",
    "default_density_batch_size",
    "CircuitError",
    "Instruction",
    "QuantumCircuit",
    "DensityMatrix",
    "simulate_density",
    "IDEAL",
    "NoiseModel",
    "global_depolarizing_factor",
    "Statevector",
    "simulate",
]
