"""Scaled experiment configurations.

The paper's experiments run up to 30 qubits on GPU simulators and real
hardware; this reproduction targets one CPU core, so every experiment
has a scaled default configuration here.  Benchmarks import these so
the scaling story lives in exactly one place: each
:class:`ExperimentScale` attribute names the paper's size next to the
scaled default.

Two tiers are provided: ``SMOKE`` (seconds; used by the test suite) and
``DEFAULT`` (the runners' default).  Benchmarks build their own
intermediate scales, chosen to finish in a few minutes total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..quantum.noise import NoiseModel

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "DEFAULT",
    "FIG4_NOISE",
    "FIG9_NOISE",
    "NCM_QPU1",
    "NCM_QPU2",
    "NCM_TRAINING_FRACTION",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Sizes shared by the experiment runners.

    Attributes:
        p1_resolution: (beta, gamma) grid points for p=1 landscapes
            (the paper uses (50, 100)).
        p2_resolution: per-axis grid points for p=2 landscapes
            (the paper uses (12, 15) -> 32.4k points).
        qubits_ideal: qubit counts for ideal p=1 sweeps
            (the paper uses 16-30).
        qubits_noisy: qubit counts for noisy p=1 sweeps
            (the paper uses 12-20).
        num_instances: problem instances per sweep point
            (the paper uses 16).
        sampling_fractions: OSCAR sampling fractions swept in Fig. 4.
    """

    p1_resolution: tuple[int, int] = (30, 60)
    p2_resolution: tuple[int, int] = (8, 10)
    qubits_ideal: tuple[int, ...] = (8, 10, 12)
    qubits_noisy: tuple[int, ...] = (6, 8, 10)
    num_instances: int = 4
    sampling_fractions: tuple[float, ...] = (0.04, 0.06, 0.08)


SMOKE = ExperimentScale(
    p1_resolution=(16, 32),
    p2_resolution=(6, 7),
    qubits_ideal=(6, 8),
    qubits_noisy=(6,),
    num_instances=2,
    sampling_fractions=(0.05, 0.08),
)

DEFAULT = ExperimentScale()

# Fig. 4's depolarizing configuration: 1q error 0.003, 2q error 0.007.
FIG4_NOISE = NoiseModel(p1=0.003, p2=0.007)

# Fig. 9's configuration: 1q error 0.001, 2q error 0.02.
FIG9_NOISE = NoiseModel(p1=0.001, p2=0.02)

# Sec. 5.1's two-QPU NCM study: QPU-1 (0.1%, 0.5%), QPU-2 (0.3%, 0.7%).
NCM_QPU1 = NoiseModel(p1=0.001, p2=0.005)
NCM_QPU2 = NoiseModel(p1=0.003, p2=0.007)

# Fig. 8 trains the NCM on 1% of the grid.
NCM_TRAINING_FRACTION = 0.01
