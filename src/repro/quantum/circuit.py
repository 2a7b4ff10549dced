"""The circuit IR every engine consumes.

:class:`QuantumCircuit` stores a flat list of :class:`Instruction` items
with concrete float angles.  It supports everything the rest of the
library needs:

- appending named gates (validated against the 12-gate table the
  ansatz builders and the dynamical-decoupling pass emit),
- composition, inversion and global unitary folding (the test oracle
  for ZNE's noise scaling, which scales the
  :class:`~repro.quantum.noise.NoiseModel` instead of folding),
- structural queries (depth, gate counts, two-qubit gate count) used by
  the noise model and latency model.

The IR is deliberately simulator-agnostic: the statevector and density
matrix engines (serial and batched) all consume the same instruction
list.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Iterator, Sequence

from .gates import gate_matrix

__all__ = ["Instruction", "QuantumCircuit", "CircuitError"]

_GATE_ARITY = {
    "x": 1, "h": 1, "s": 1, "sdg": 1, "rx": 1, "ry": 1, "rz": 1,
    "cx": 2, "cz": 2, "rxx": 2, "ryy": 2, "rzz": 2,
}

_PARAM_COUNT = {"rx": 1, "ry": 1, "rz": 1, "rxx": 1, "ryy": 1, "rzz": 1}

_SELF_INVERSE = {"x", "h", "cx", "cz"}
_NAMED_INVERSE = {"s": "sdg", "sdg": "s"}


class CircuitError(ValueError):
    """Raised for structurally invalid circuit operations."""


@dataclass(frozen=True)
class Instruction:
    """One gate application: a name, qubit operands and float angles."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


class QuantumCircuit:
    """An ordered list of gate instructions on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit"):
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: list[Instruction] = []

    # -- construction -------------------------------------------------

    def append(
        self,
        name: str,
        qubits: Sequence[int] | int,
        params: Sequence[float] | float = (),
    ) -> "QuantumCircuit":
        """Append a gate by name; returns ``self`` for chaining.

        Angles are stored as ``float``; a non-numeric angle raises
        :class:`CircuitError` here rather than at simulation time.
        """
        key = name.lower()
        if key not in _GATE_ARITY:
            raise CircuitError(f"unknown gate {name!r}")
        if isinstance(qubits, int):
            qubits = (qubits,)
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) != _GATE_ARITY[key]:
            raise CircuitError(
                f"gate {name!r} acts on {_GATE_ARITY[key]} qubit(s), got {len(qubits)}"
            )
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubit operands in {qubits!r}")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit {qubit} out of range for {self.num_qubits}-qubit circuit"
                )
        if not isinstance(params, (tuple, list)):
            params = (params,)
        expected = _PARAM_COUNT.get(key, 0)
        if len(params) != expected:
            raise CircuitError(
                f"gate {name!r} takes {expected} parameter(s), got {len(params)}"
            )
        for value in params:
            if not isinstance(value, Real):
                raise CircuitError(
                    f"gate {name!r} needs a numeric angle, got {value!r}"
                )
        self._instructions.append(
            Instruction(key, qubits, tuple(float(value) for value in params))
        )
        return self

    # Convenience wrappers so ansatz code reads like textbook circuits.
    def x(self, q: int) -> "QuantumCircuit":
        """Pauli-X gate."""
        return self.append("x", q)

    def h(self, q: int) -> "QuantumCircuit":
        """Hadamard gate."""
        return self.append("h", q)

    def s(self, q: int) -> "QuantumCircuit":
        """Phase gate S."""
        return self.append("s", q)

    def sdg(self, q: int) -> "QuantumCircuit":
        """Adjoint phase gate S-dagger."""
        return self.append("sdg", q)

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        """X-rotation by ``theta``."""
        return self.append("rx", q, (theta,))

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        """Y-rotation by ``theta``."""
        return self.append("ry", q, (theta,))

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        """Z-rotation by ``theta``."""
        return self.append("rz", q, (theta,))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-X (CNOT) with the first operand as control."""
        return self.append("cx", (control, target))

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        """Controlled-Z (symmetric in its operands)."""
        return self.append("cz", (a, b))

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        """ZZ-rotation ``exp(-i theta ZZ / 2)`` (QAOA cost gate)."""
        return self.append("rzz", (a, b), (theta,))

    def rxx(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        """XX-rotation ``exp(-i theta XX / 2)``."""
        return self.append("rxx", (a, b), (theta,))

    def ryy(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        """YY-rotation ``exp(-i theta YY / 2)``."""
        return self.append("ryy", (a, b), (theta,))

    # -- structural queries -------------------------------------------

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The instruction list (read-only view)."""
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def count_gates(self) -> dict[str, int]:
        """Histogram of gate names."""
        counts: dict[str, int] = {}
        for instruction in self._instructions:
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    @property
    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit gates (drives the noise/latency models)."""
        return sum(1 for instr in self._instructions if len(instr.qubits) == 2)

    def depth(self) -> int:
        """Circuit depth: longest chain of gates sharing qubits."""
        level = [0] * self.num_qubits
        for instruction in self._instructions:
            layer = 1 + max(level[q] for q in instruction.qubits)
            for qubit in instruction.qubits:
                level[qubit] = layer
        return max(level, default=0)

    # -- transformation ------------------------------------------------

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Concatenate ``other`` after this circuit."""
        if other.num_qubits != self.num_qubits:
            raise CircuitError("cannot compose circuits of different widths")
        out = self.copy()
        out._instructions.extend(other._instructions)
        return out

    def copy(self) -> "QuantumCircuit":
        """Shallow copy (instructions are immutable)."""
        out = QuantumCircuit(self.num_qubits, name=self.name)
        out._instructions = list(self._instructions)
        return out

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (rotation angles negated)."""
        out = QuantumCircuit(self.num_qubits, name=f"{self.name}_dg")
        for instruction in reversed(self._instructions):
            name = instruction.name
            if name in _SELF_INVERSE:
                out._instructions.append(instruction)
            elif name in _NAMED_INVERSE:
                out._instructions.append(
                    Instruction(_NAMED_INVERSE[name], instruction.qubits)
                )
            elif name in _PARAM_COUNT:
                params = tuple(-value for value in instruction.params)
                out._instructions.append(Instruction(name, instruction.qubits, params))
            else:  # pragma: no cover - defensive; every gate is categorized
                raise CircuitError(f"cannot invert gate {name!r}")
        return out

    def folded(self, scale_factor: int) -> "QuantumCircuit":
        """Global unitary folding ``U -> U (U^dagger U)^k``.

        ``scale_factor`` must be an odd positive integer ``2k + 1``; the
        folded circuit is logically identical but executes
        ``scale_factor`` times the gates, scaling physical noise.
        """
        if scale_factor < 1 or scale_factor % 2 == 0:
            raise CircuitError("fold scale factor must be an odd positive integer")
        out = self.copy()
        inverse = self.inverse()
        for _ in range((scale_factor - 1) // 2):
            out = out.compose(inverse).compose(self)
        out.name = f"{self.name}_x{scale_factor}"
        return out

    def resolved_operations(self) -> Iterable[tuple[str, tuple[int, ...], "object"]]:
        """Yield ``(name, qubits, matrix)`` for every instruction.

        This is the single entry point simulators use, so gate semantics
        live in exactly one place.
        """
        for instruction in self._instructions:
            yield instruction.name, instruction.qubits, gate_matrix(
                instruction.name, instruction.params
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self._instructions)}, depth={self.depth()})"
        )
