"""Parameter transfer: warm-starting from smaller problem instances.

The paper's Sec. 8 cites warm-starting and "using parameters obtained
from running simpler instances" (Egger et al. 2021) as the prior
alternatives to OSCAR initialization.  This module implements that
baseline so the two strategies can be compared head-to-head: QAOA
angles are known to *concentrate* — optimal ``(beta, gamma)`` for
random instances of the same problem family vary little with instance
and size — so angles found on a cheap small instance transfer well to
an expensive large one.

:func:`transfer_initial_point` optimizes a small donor instance (via a
dense-but-cheap landscape) and returns its optimum as the initial point
for the target instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ansatz.qaoa import QaoaAnsatz
from ..landscape.generator import LandscapeGenerator, cost_function
from ..landscape.grid import qaoa_grid
from ..problems.maxcut import random_3_regular_maxcut

__all__ = ["TransferOutcome", "transfer_initial_point"]


@dataclass(frozen=True)
class TransferOutcome:
    """A transferred initial point and its provenance.

    Attributes:
        initial_point: donor-optimal angles, to start the target run.
        donor_qubits: size of the donor instance.
        donor_value: donor cost at the transferred angles.
        donor_executions: circuit executions spent on the donor.
    """

    initial_point: np.ndarray
    donor_qubits: int
    donor_value: float
    donor_executions: int


def transfer_initial_point(
    donor_qubits: int = 6, donor_seed: int = 0
) -> TransferOutcome:
    """Optimal p=1 angles of a small donor MaxCut instance.

    The donor's landscape is generated densely on a 16x32 grid over the
    Table 1 p=1 ranges (cheap at 6 qubits) and its grid minimum is
    returned.
    """
    if donor_qubits < 4:
        raise ValueError("donor instance needs at least 4 qubits")
    donor_problem = random_3_regular_maxcut(donor_qubits, seed=donor_seed)
    donor_ansatz = QaoaAnsatz(donor_problem, p=1)
    grid = qaoa_grid(p=1, resolution=(16, 32))
    generator = LandscapeGenerator(cost_function(donor_ansatz), grid)
    landscape = generator.grid_search(label="transfer-donor")
    value, point = landscape.minimum()
    return TransferOutcome(
        initial_point=point,
        donor_qubits=donor_qubits,
        donor_value=value,
        donor_executions=landscape.circuit_executions,
    )
