"""Parallel multi-QPU sampling (Sec. 5.1, Fig. 7).

OSCAR's samples are independent, so they can be distributed over a pool
of devices.  :class:`ParallelSampler` does exactly that — including the
NCM pipeline: hold out a small training fraction, execute it on *both*
the reference device and each secondary device, fit one linear
:class:`~repro.parallel.ncm.NoiseCompensationModel` per secondary
device, and transform the secondary devices' production samples into
the reference frame before reconstruction.

Execution is simulated, but job *timing* is modelled faithfully: each
sample gets a latency draw from its device's
:class:`~repro.hardware.latency.LatencyModel`, and the batch completes
at the device-wise maximum — the quantity eager reconstruction attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..ansatz.base import Ansatz
from ..hardware.qpu import QpuPool
from ..landscape.grid import ParameterGrid, validate_flat_indices
from .ncm import NoiseCompensationModel
from ..utils import ensure_rng

__all__ = ["SampleBatch", "ParallelSampler"]


@dataclass
class SampleBatch:
    """Samples gathered by one parallel run.

    Attributes:
        flat_indices: grid indices of all gathered samples.
        values: cost values aligned with :attr:`flat_indices` (already
            NCM-transformed when compensation is enabled).
        latencies: per-sample completion times (seconds).
        device_of_sample: pool index that executed each sample.
        ncm_training_pairs: number of circuit parameters executed twice
            for NCM training (extra cost bookkeeping).
        training_latencies: completion times of the NCM training
            executions (reference and secondary devices).  These jobs
            run in the same batch, so they participate in the makespan
            — the paper's NCM-overhead claim depends on counting them.
    """

    flat_indices: np.ndarray
    values: np.ndarray
    latencies: np.ndarray
    device_of_sample: np.ndarray
    ncm_training_pairs: int = 0
    training_latencies: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def makespan(self) -> float:
        """Wall-clock completion time of the whole batch — the max over
        production *and* NCM-training job latencies."""
        slowest = 0.0
        if self.latencies.size:
            slowest = float(np.max(self.latencies))
        if self.training_latencies.size:
            slowest = max(slowest, float(np.max(self.training_latencies)))
        return slowest

    def completed_before(self, timeout: float) -> "SampleBatch":
        """The sub-batch whose production jobs finished within
        ``timeout`` seconds.

        NCM training jobs are *retained regardless of the timeout*:
        when compensation ran, every value in the batch causally
        depends on the training outputs, so training jobs can never be
        dropped — the sub-batch's makespan keeps accounting for them.
        """
        mask = self.latencies <= timeout
        return SampleBatch(
            self.flat_indices[mask],
            self.values[mask],
            self.latencies[mask],
            self.device_of_sample[mask],
            self.ncm_training_pairs,
            self.training_latencies,
        )


class ParallelSampler:
    """Distributes landscape sampling over a QPU pool."""

    def __init__(self, pool: QpuPool, grid: ParameterGrid, reference: str | None = None):
        self.pool = pool
        self.grid = grid
        self.reference = reference or pool.qpus[0].name

    def run(
        self,
        ansatz: Ansatz,
        flat_indices: np.ndarray,
        fractions: Sequence[float] | None = None,
        compensate: bool = False,
        ncm_training_fraction: float = 0.01,
        rng: np.random.Generator | None = None,
    ) -> SampleBatch:
        """Execute the sampled grid points across the pool.

        When compensation is on, the NCM training executions (reference
        device once, each secondary device once) are accounted as jobs
        of the batch: their latencies land in
        :attr:`SampleBatch.training_latencies` and participate in the
        makespan, since the paper's overhead claim counts them.

        Args:
            ansatz: the circuit family being characterised.
            flat_indices: integer flat indices of the grid points to
                evaluate (checked by
                :func:`~repro.landscape.grid.validate_flat_indices`).
            fractions: share of samples per QPU (default: even split).
            compensate: if True, fit the paper's linear NCM per
                non-reference device and transform its values into the
                reference frame.
            ncm_training_fraction: fraction *of the full grid* used as
                NCM training pairs (the paper trains on 1%).
            rng: RNG for choosing training points.
        """
        rng = ensure_rng(rng)
        flat_indices = validate_flat_indices(self.grid.size, flat_indices)
        if fractions is None:
            fractions = [1.0 / len(self.pool)] * len(self.pool)
        chunks = self.pool.split_indices(flat_indices, fractions)
        reference_qpu = self.pool.by_name(self.reference)
        reference_index = self.pool.qpus.index(reference_qpu)

        all_indices: list[np.ndarray] = []
        all_values: list[np.ndarray] = []
        all_latencies: list[np.ndarray] = []
        all_devices: list[np.ndarray] = []
        training_latencies: list[np.ndarray] = []
        training_pairs = 0

        # NCM training points: shared across devices, drawn (and their
        # parameter vectors materialised) exactly once.
        training_indices = np.empty(0, dtype=int)
        training_points = np.empty((0, self.grid.ndim))
        reference_training_values = np.empty(0)
        if compensate:
            count = max(
                2, int(round(ncm_training_fraction * self.grid.size))
            )
            training_indices = np.sort(
                rng.choice(self.grid.size, size=count, replace=False)
            )
            training_points = self.grid.points_from_flat(training_indices)
            reference_training_values = reference_qpu.execute_batch(
                ansatz, training_points
            )
            training_latencies.append(
                reference_qpu.sample_latencies(training_indices.size)
            )

        for device_index, (qpu, chunk) in enumerate(zip(self.pool, chunks)):
            if chunk.size == 0:
                continue
            points = self.grid.points_from_flat(chunk)
            values = qpu.execute_batch(ansatz, points)
            if compensate and device_index != reference_index:
                device_training_values = qpu.execute_batch(ansatz, training_points)
                training_latencies.append(
                    qpu.sample_latencies(training_indices.size)
                )
                model = NoiseCompensationModel(degree=1)
                model.train(device_training_values, reference_training_values)
                values = model.transform(values)
                training_pairs += training_indices.size
            all_indices.append(chunk)
            all_values.append(values)
            all_latencies.append(qpu.sample_latencies(chunk.size))
            all_devices.append(np.full(chunk.size, device_index))

        return SampleBatch(
            flat_indices=np.concatenate(all_indices) if all_indices else np.empty(0, int),
            values=np.concatenate(all_values) if all_values else np.empty(0),
            latencies=np.concatenate(all_latencies) if all_latencies else np.empty(0),
            device_of_sample=(
                np.concatenate(all_devices) if all_devices else np.empty(0, int)
            ),
            ncm_training_pairs=training_pairs,
            training_latencies=(
                np.concatenate(training_latencies)
                if training_latencies
                else np.empty(0)
            ),
        )
