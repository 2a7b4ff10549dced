"""Simulated quantum processing units (QPUs).

The parallel-reconstruction and NCM experiments need multiple devices
with *different noise configurations* — the paper uses pairs of noisy
simulators (0.1%/0.5% vs 0.3%/0.7% gate errors), IBM Lagos/Perth, and
ideal simulation.  :class:`SimulatedQPU` wraps an ansatz execution with
a fixed :class:`~repro.quantum.noise.NoiseModel`, per-device shot
noise, and a latency model, which is everything the scheduler needs.

Named device profiles approximate the published calibration data of the
7-qubit IBM Falcon devices the paper used (median 1q error ~3e-4,
2q error ~7e-3 for Lagos; slightly worse for Perth) plus readout error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..quantum.noise import IDEAL, NoiseModel
from .latency import LatencyModel

__all__ = ["SimulatedQPU", "QpuPool", "device_profile", "DEVICE_PROFILES"]

DEVICE_PROFILES: dict[str, NoiseModel] = {
    "ideal-sim": IDEAL,
    "noisy-sim-i": NoiseModel(p1=0.001, p2=0.005),
    "noisy-sim-ii": NoiseModel(p1=0.003, p2=0.007),
    "ibm-lagos": NoiseModel(p1=0.0003, p2=0.008, readout=0.012),
    "ibm-perth": NoiseModel(p1=0.0005, p2=0.012, readout=0.025),
}


def device_profile(name: str) -> NoiseModel:
    """Look up a named device noise profile."""
    if name not in DEVICE_PROFILES:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(DEVICE_PROFILES)}"
        )
    return DEVICE_PROFILES[name]


@dataclass
class SimulatedQPU:
    """One simulated device: noise profile + shots + latency.

    Attributes:
        name: device identifier.
        noise: the device's noise model.
        shots: shots per expectation estimate (``None`` = exact).
        latency: job-latency model (used by the parallel scheduler).
        seed: RNG seed; every QPU owns an independent stream so
            multi-device experiments are reproducible.
    """

    name: str
    noise: NoiseModel = IDEAL
    shots: int | None = None
    latency: LatencyModel = field(default_factory=LatencyModel)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def execute_batch(self, ansatz: Ansatz, points: np.ndarray) -> np.ndarray:
        """Expectations for an ``(m, k)`` batch of parameter vectors under
        this device's noise and shots, in one batched engine call (the
        same values and shot draws as a row-by-row loop)."""
        return ansatz.expectation_many(
            points, noise=self.noise, shots=self.shots, rng=self._rng
        )

    def sample_latencies(self, count: int) -> np.ndarray:
        """Per-job completion latencies for ``count`` jobs."""
        return self.latency.sample(count, self._rng)


class QpuPool:
    """A set of QPUs jobs can be distributed over."""

    def __init__(self, qpus: Sequence[SimulatedQPU]):
        if not qpus:
            raise ValueError("a pool needs at least one QPU")
        names = [qpu.name for qpu in qpus]
        if len(set(names)) != len(names):
            raise ValueError("QPU names in a pool must be unique")
        self.qpus = list(qpus)

    def __len__(self) -> int:
        return len(self.qpus)

    def __iter__(self):
        return iter(self.qpus)

    def by_name(self, name: str) -> SimulatedQPU:
        """Look up a pool member by name."""
        for qpu in self.qpus:
            if qpu.name == name:
                return qpu
        raise KeyError(f"no QPU named {name!r} in pool")

    def split_indices(
        self, flat_indices: np.ndarray, fractions: Sequence[float]
    ) -> list[np.ndarray]:
        """Partition sample indices across the pool by target fractions.

        ``fractions`` must have one entry per QPU and sum to ~1; the
        Table 5 splits ("20%-80%" etc.) use this.
        """
        flat_indices = np.asarray(flat_indices, dtype=int)
        if len(fractions) != len(self.qpus):
            raise ValueError("need one fraction per QPU")
        total = float(sum(fractions))
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"fractions must sum to 1, got {total}")
        counts = [int(round(f * flat_indices.size)) for f in fractions]
        # Fix rounding drift on the last chunk.
        counts[-1] = flat_indices.size - sum(counts[:-1])
        if counts[-1] < 0:
            raise ValueError("fractions produce a negative final chunk")
        chunks = []
        cursor = 0
        for count in counts:
            chunks.append(flat_indices[cursor : cursor + count])
            cursor += count
        return chunks
