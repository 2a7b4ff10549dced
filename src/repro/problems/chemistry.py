"""Molecular qubit Hamiltonians for the chemistry experiments (Table 3).

The paper computes VQE landscapes for the hydrogen molecule (H2) and
lithium hydride (LiH).  The original work derives these from electronic
structure packages; offline we use published reduced qubit Hamiltonians:

- **H2 (2 qubits)** — the parity-mapped, symmetry-reduced Hamiltonian of
  O'Malley et al., *PRX 6, 031007 (2016)* at bond length 0.735 Å:
  ``g0*II + g1*ZI + g2*IZ + g3*ZZ + g4*XX + g5*YY``.
- **LiH (4 qubits)** — a compact effective Hamiltonian with the term
  structure of the frozen-core parity-mapped LiH problem (diagonal
  Z/ZZ terms dominating, weaker XX/YY/XZ exchange terms).  Coefficients
  are representative rather than chemically exact; the landscape
  experiments only require a realistic multi-term, partly off-diagonal
  4-qubit Hamiltonian, so this stands in for the electronic-structure
  derivation.

Both return :class:`~repro.problems.pauli.PauliSum` objects.
"""

from __future__ import annotations

from .pauli import PauliSum

__all__ = ["h2_hamiltonian", "lih_hamiltonian"]

# O'Malley et al. (2016), Table 1, R = 0.7414 A (equilibrium); values in
# Hartree.  Identity coefficient includes nuclear repulsion.
_H2_TERMS = {
    "II": -0.4804,
    "ZI": +0.3435,
    "IZ": -0.4347,
    "ZZ": +0.5716,
    "XX": +0.0910,
    "YY": +0.0910,
}

# Effective 4-qubit LiH Hamiltonian: dominant diagonal core + exchange.
_LIH_TERMS = {
    "IIII": -7.4989,
    "ZIII": +0.1120,
    "IZII": -0.0559,
    "IIZI": +0.1120,
    "IIIZ": -0.0559,
    "ZZII": +0.0850,
    "IZZI": +0.0616,
    "IIZZ": +0.0850,
    "ZIZI": +0.0582,
    "IZIZ": +0.0582,
    "ZIIZ": +0.0616,
    "XXII": +0.0242,
    "IXXI": +0.0131,
    "IIXX": +0.0242,
    "YYII": +0.0242,
    "IYYI": +0.0131,
    "IIYY": +0.0242,
    "XZXI": +0.0108,
    "IXZX": +0.0108,
    "YZYI": +0.0108,
    "IYZY": +0.0108,
}


def h2_hamiltonian() -> PauliSum:
    """The 2-qubit H2 Hamiltonian at equilibrium bond length."""
    return PauliSum.from_dict(_H2_TERMS)


def lih_hamiltonian() -> PauliSum:
    """The effective 4-qubit LiH Hamiltonian (see module docstring)."""
    return PauliSum.from_dict(_LIH_TERMS)
