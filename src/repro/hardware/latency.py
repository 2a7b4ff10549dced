"""Latency models for simulated QPUs.

The parallel-reconstruction experiments (Sec. 5.2) hinge on the shape of
real cloud-QPU latency: large queuing delays plus heavy-tailed circuit
execution times — the paper reports 10x-30x higher tail latency than
median.  :class:`LatencyModel` produces per-job completion times from a
log-normal body with an explicit Pareto tail, reproducing those
tail-to-median ratios, which is all the eager-reconstruction experiment
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LatencyModel"]


@dataclass(frozen=True)
class LatencyModel:
    """Heavy-tailed job latency: a log-normal body (shape 0.25) around
    the median with a Pareto tail.

    Attributes:
        median_seconds: median circuit execution latency.
        tail_probability: chance a job lands in the Pareto tail.
        tail_scale: tail start, as a multiple of the median.
        tail_alpha: Pareto index (smaller = heavier tail).
    """

    median_seconds: float = 1.0
    tail_probability: float = 0.05
    tail_scale: float = 10.0
    tail_alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.median_seconds <= 0:
            raise ValueError("median latency must be positive")
        if not 0.0 <= self.tail_probability < 1.0:
            raise ValueError("tail probability must be in [0, 1)")
        if self.tail_alpha <= 1.0:
            raise ValueError("tail alpha must exceed 1 for a finite mean")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` job latencies (seconds)."""
        body = self.median_seconds * rng.lognormal(0.0, 0.25, size=count)
        in_tail = rng.random(count) < self.tail_probability
        tail = (
            self.median_seconds
            * self.tail_scale
            * (1.0 + rng.pareto(self.tail_alpha, size=count))
        )
        return np.where(in_tail, tail, body)

    def tail_to_median_ratio(self, rng: np.random.Generator) -> float:
        """Empirical p99 / median ratio over 20000 draws (sanity check
        for configs)."""
        draws = self.sample(20000, rng)
        return float(np.percentile(draws, 99) / np.median(draws))
