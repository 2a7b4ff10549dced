"""Generic Ising cost Hamiltonians.

All combinatorial problems the paper evaluates (MaxCut, SK) reduce to a
classical Ising Hamiltonian

    C(z) = sum_{i<j} J_ij z_i z_j + sum_i h_i z_i + offset,   z_i in {+1,-1},

which is diagonal in the computational basis.  :class:`IsingProblem`
stores the couplings and exposes the two things the rest of the library
needs: the full diagonal cost vector (for expectation fast paths) and the
term list (for building the QAOA cost layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliString, PauliSum

__all__ = ["IsingProblem"]


@dataclass(frozen=True)
class IsingProblem:
    """A diagonal cost Hamiltonian over ``num_qubits`` spins.

    Attributes:
        num_qubits: number of binary variables.
        couplings: mapping ``(i, j) -> J_ij`` with ``i < j``.
        fields: mapping ``i -> h_i`` for linear terms.
        offset: constant energy shift.
        name: human-readable tag ("maxcut-3reg-n12-s0", ...).
    """

    num_qubits: int
    couplings: tuple[tuple[int, int, float], ...]
    fields: tuple[tuple[int, float], ...] = ()
    offset: float = 0.0
    name: str = "ising"

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")
        for i, j, _ in self.couplings:
            if not (0 <= i < j < self.num_qubits):
                raise ValueError(f"invalid coupling pair ({i}, {j})")
        for i, _ in self.fields:
            if not 0 <= i < self.num_qubits:
                raise ValueError(f"invalid field index {i}")

    @classmethod
    def from_dicts(
        cls,
        num_qubits: int,
        couplings: dict[tuple[int, int], float],
        offset: float = 0.0,
        name: str = "ising",
    ) -> "IsingProblem":
        """Build a field-free problem from a coupling dictionary,
        normalising pair order.  Problems with linear terms use the
        constructor's ``fields``."""
        pairs = []
        for (i, j), weight in couplings.items():
            if i == j:
                raise ValueError("self-couplings are not allowed")
            lo, hi = (i, j) if i < j else (j, i)
            pairs.append((lo, hi, float(weight)))
        return cls(num_qubits, tuple(sorted(pairs)), (), offset, name)

    def cost_diagonal(self) -> np.ndarray:
        """Cost of every basis state, as a dense length ``2**n`` vector.

        Basis index bit ``q`` maps to spin ``z_q = 1 - 2*bit_q`` (bit 0
        -> spin +1), the standard Z-eigenvalue convention.
        """
        n = self.num_qubits
        indices = np.arange(1 << n)
        spins = 1.0 - 2.0 * ((indices[:, None] >> np.arange(n)) & 1)
        values = np.full(1 << n, self.offset)
        for i, j, weight in self.couplings:
            values += weight * spins[:, i] * spins[:, j]
        for i, strength in self.fields:
            values += strength * spins[:, i]
        return values

    def cost_of_bitstring(self, bits: str | int) -> float:
        """Cost of one assignment (bitstring label or basis index)."""
        if isinstance(bits, str):
            index = int(bits, 2)
        else:
            index = int(bits)
        spins = [1.0 - 2.0 * ((index >> q) & 1) for q in range(self.num_qubits)]
        value = self.offset
        for i, j, weight in self.couplings:
            value += weight * spins[i] * spins[j]
        for i, strength in self.fields:
            value += strength * spins[i]
        return value

    def to_pauli_sum(self) -> PauliSum:
        """The cost Hamiltonian as an explicit Pauli-Z sum."""
        n = self.num_qubits
        terms = []
        if self.offset != 0.0:
            terms.append(PauliString("I" * n, self.offset))
        for i, j, weight in self.couplings:
            label = "".join(
                "Z" if q in (i, j) else "I" for q in range(n - 1, -1, -1)
            )
            terms.append(PauliString(label, weight))
        for i, strength in self.fields:
            label = "".join("Z" if q == i else "I" for q in range(n - 1, -1, -1))
            terms.append(PauliString(label, strength))
        if not terms:
            terms.append(PauliString("I" * n, 0.0))
        return PauliSum(terms)

    def optimal_cost(self) -> float:
        """Minimum cost over all assignments (exhaustive; small n)."""
        return float(np.min(self.cost_diagonal()))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The coupled variable pairs."""
        return tuple((i, j) for i, j, _ in self.couplings)
