"""Pauli-string operator algebra.

Molecular Hamiltonians (H2, LiH) and generic observables are sums of
Pauli strings.  :class:`PauliString` is an immutable label like ``"XZI"``
with a coefficient; :class:`PauliSum` is a linear combination with
expectation evaluation against a statevector and dense materialisation
for small systems.

Label convention: index 0 of the label string acts on qubit ``n-1``
(ket order), so ``PauliString("ZI")`` is Z on qubit 1.  This matches how
published Hamiltonian tables are written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from ..quantum.gates import PAULI_MATRICES
from ..quantum.statevector import Statevector

__all__ = ["PauliString", "PauliSum"]

_VALID = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """A weighted Pauli tensor product, e.g. ``0.5 * XZI``."""

    label: str
    coefficient: complex = 1.0

    def __post_init__(self) -> None:
        if not self.label or any(ch not in _VALID for ch in self.label):
            raise ValueError(f"invalid Pauli label {self.label!r}")

    @property
    def num_qubits(self) -> int:
        """Width of the string."""
        return len(self.label)

    @property
    def is_diagonal(self) -> bool:
        """True if the string is diagonal in the computational basis."""
        return all(ch in "IZ" for ch in self.label)

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return sum(1 for ch in self.label if ch != "I")

    def matrix(self) -> np.ndarray:
        """Dense matrix (exponential size; small n only)."""
        out = np.array([[1.0]], dtype=complex)
        for ch in self.label:
            out = np.kron(out, PAULI_MATRICES[ch])
        return self.coefficient * out

    def diagonal(self) -> np.ndarray:
        """Diagonal values for an I/Z-only string, cheaply.

        Entry ``k`` is ``coefficient * prod_q (-1)^{bit_q(k)}`` over the
        qubits where the label has a Z.
        """
        if not self.is_diagonal:
            raise ValueError(f"Pauli string {self.label!r} is not diagonal")
        n = self.num_qubits
        indices = np.arange(1 << n)
        signs = np.ones(1 << n)
        for position, ch in enumerate(self.label):
            if ch == "Z":
                qubit = n - 1 - position  # label index 0 = highest qubit
                bits = (indices >> qubit) & 1
                signs *= 1.0 - 2.0 * bits
        return np.real(self.coefficient) * signs

    def expectation(self, state: Statevector) -> float:
        """``<psi| P |psi>`` without materialising the full matrix.

        Applies the string's single-qubit factors to a copy of the state
        and takes the inner product with the original — O(n 2^n).
        """
        if state.num_qubits != self.num_qubits:
            raise ValueError("state width does not match Pauli string")
        if self.is_diagonal:
            return float(np.dot(state.probabilities(), self.diagonal()))
        rotated = state.copy()
        n = self.num_qubits
        for position, ch in enumerate(self.label):
            if ch == "I":
                continue
            rotated.apply_one_qubit(PAULI_MATRICES[ch], n - 1 - position)
        overlap = np.vdot(state.data, rotated.data)
        return float(np.real(self.coefficient * overlap))


class PauliSum:
    """A linear combination of Pauli strings (a qubit Hamiltonian)."""

    def __init__(self, terms: Iterable[PauliString]):
        terms = list(terms)
        if not terms:
            raise ValueError("a PauliSum needs at least one term")
        width = terms[0].num_qubits
        if any(term.num_qubits != width for term in terms):
            raise ValueError("all terms must act on the same number of qubits")
        self._terms = self._collect(terms)
        self.num_qubits = width

    @staticmethod
    def _collect(terms: list[PauliString]) -> tuple[PauliString, ...]:
        """Merge duplicate labels and drop numerically zero terms."""
        merged: dict[str, complex] = {}
        for term in terms:
            merged[term.label] = merged.get(term.label, 0.0) + term.coefficient
        kept = [
            PauliString(label, coefficient)
            for label, coefficient in merged.items()
            if abs(coefficient) > 1e-14
        ]
        if not kept:  # all terms cancelled; keep an explicit zero
            width = terms[0].num_qubits
            kept = [PauliString("I" * width, 0.0)]
        return tuple(sorted(kept, key=lambda t: t.label))

    @classmethod
    def from_dict(cls, mapping: Mapping[str, complex]) -> "PauliSum":
        """Build from ``{"ZZ": 0.5, "XI": -0.2, ...}``."""
        return cls(PauliString(label, coeff) for label, coeff in mapping.items())

    @property
    def terms(self) -> tuple[PauliString, ...]:
        """The (merged, sorted) term list."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self._terms)

    @property
    def is_diagonal(self) -> bool:
        """True if every term is I/Z-only."""
        return all(term.is_diagonal for term in self._terms)

    def matrix(self) -> np.ndarray:
        """Dense Hamiltonian matrix (small n only)."""
        return sum(term.matrix() for term in self._terms)

    def diagonal(self) -> np.ndarray:
        """Diagonal values for a diagonal Hamiltonian."""
        return sum(term.diagonal() for term in self._terms)

    def expectation(self, state: Statevector) -> float:
        """``<psi| H |psi>`` as a sum over terms."""
        return sum(term.expectation(state) for term in self._terms)

    def ground_energy(self) -> float:
        """Smallest eigenvalue (dense diagonalisation; small n only)."""
        if self.is_diagonal:
            return float(np.min(self.diagonal()))
        eigenvalues = np.linalg.eigvalsh(self.matrix())
        return float(eigenvalues[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(
            f"{term.coefficient:+.3g}*{term.label}" for term in self._terms[:4]
        )
        suffix = ", ..." if len(self._terms) > 4 else ""
        return f"PauliSum({preview}{suffix})"
