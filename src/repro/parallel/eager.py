"""Eager reconstruction (Sec. 5.2, "Relaxing Amdahl's Law").

A parallel sampling batch completes only when its *slowest* job does,
and cloud-QPU latency tails run 10x-30x above the median.  Eager
reconstruction sets a soft timeout, drops the straggler samples still
in flight, and reconstructs from whatever arrived — trading a slightly
lower sampling fraction (hence marginally higher NRMSE) for a large
reduction in time-to-landscape.

:func:`eager_reconstruct` implements the policy; the timeout is
expressed as a quantile of the batch's latency distribution so configs
transfer across latency scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..landscape.landscape import Landscape
from ..landscape.reconstructor import OscarReconstructor, ReconstructionReport
from .scheduler import SampleBatch

__all__ = ["EagerOutcome", "eager_reconstruct"]


@dataclass(frozen=True)
class EagerOutcome:
    """Result of an eager (timeout-bounded) reconstruction.

    Attributes:
        landscape: the reconstructed landscape.
        report: reconstruction diagnostics.
        timeout_seconds: the applied soft timeout.
        samples_used: jobs that finished in time.
        samples_dropped: straggler jobs discarded.
        full_makespan: completion time had we waited for every job.
        eager_makespan: actual completion time of the eager batch — the
            slowest *surviving* production job (at or before the
            timeout; waiting until the timeout itself is unnecessary
            once the last survivor has landed), or the slowest NCM
            training job if compensation ran, since training outputs
            are baked into the surviving values and cannot be dropped.
        time_saved_fraction: ``1 - eager_makespan / full_makespan``.
    """

    landscape: Landscape
    report: ReconstructionReport
    timeout_seconds: float
    samples_used: int
    samples_dropped: int
    full_makespan: float
    eager_makespan: float
    time_saved_fraction: float


def eager_reconstruct(
    reconstructor: OscarReconstructor,
    batch: SampleBatch,
    timeout_quantile: float = 0.95,
) -> EagerOutcome:
    """Reconstruct from the samples completed before a soft timeout.

    The reconstructed landscape is labelled ``"oscar-eager"``.

    Args:
        reconstructor: configured for the batch's grid.
        batch: a parallel sampling batch with latency annotations.
        timeout_quantile: the soft timeout, as a quantile of the batch's
            latency distribution (0.95 drops the worst 5% of jobs).
    """
    if not 0.0 < timeout_quantile <= 1.0:
        raise ValueError("timeout quantile must be in (0, 1]")
    if batch.latencies.size == 0:
        raise ValueError("cannot reconstruct from an empty batch")
    timeout = float(np.quantile(batch.latencies, timeout_quantile))
    surviving = batch.completed_before(timeout)
    if surviving.flat_indices.size == 0:
        raise ValueError("timeout dropped every sample; raise the quantile")
    landscape, report = reconstructor.reconstruct_from_samples(
        surviving.flat_indices, surviving.values, label="oscar-eager"
    )
    full_makespan = batch.makespan
    # The eager batch completes when its slowest *surviving* job does —
    # at or before the timeout for production jobs, never at the
    # timeout itself.  completed_before retains NCM training jobs (the
    # surviving values are compensated with their outputs, so they can
    # never be dropped); surviving.makespan accounts for them.
    eager_makespan = surviving.makespan
    saved = 1.0 - eager_makespan / full_makespan if full_makespan > 0 else 0.0
    return EagerOutcome(
        landscape=landscape,
        report=report,
        timeout_seconds=timeout,
        samples_used=int(surviving.flat_indices.size),
        samples_dropped=int(batch.flat_indices.size - surviving.flat_indices.size),
        full_makespan=full_makespan,
        eager_makespan=eager_makespan,
        time_saved_fraction=float(max(saved, 0.0)),
    )
