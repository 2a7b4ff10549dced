"""Dynamical decoupling (DD) circuit pass.

DD is the canonical shot-frugal mitigation (Sec. 2.3): insert pulse
pairs on qubits that sit idle while other qubits are being operated on,
refocusing low-frequency dephasing (idle ZZ-crosstalk) without extra
circuit executions.

Our circuit IR has no explicit timing, so the pass works on *layers*:
gates are greedily packed into parallel layers (the same scheduling
that defines circuit depth) and every qubit idle in a layer receives an
``X``-``X`` pair.  The pair multiplies to identity, so the transformed
circuit is logically equivalent — verified by the test suite — while a
dephasing-during-idle error model sees its idle windows refocused.
"""

from __future__ import annotations

from ..quantum.circuit import Instruction, QuantumCircuit

__all__ = ["insert_dynamical_decoupling", "schedule_layers"]


def schedule_layers(circuit: QuantumCircuit) -> list[list[Instruction]]:
    """Greedy ASAP scheduling of instructions into parallel layers."""
    layers: list[list[Instruction]] = []
    busy_until = [0] * circuit.num_qubits
    for instruction in circuit.instructions:
        layer_index = max(busy_until[q] for q in instruction.qubits)
        while len(layers) <= layer_index:
            layers.append([])
        layers[layer_index].append(instruction)
        for qubit in instruction.qubits:
            busy_until[qubit] = layer_index + 1
    return layers


def insert_dynamical_decoupling(circuit: QuantumCircuit) -> QuantumCircuit:
    """Insert X-X pairs on every idle qubit of every layer.

    The output acts identically on all states (XX = I) but has no idle
    windows, emulating an XY-style decoupling sequence.
    """
    layers = schedule_layers(circuit)
    out = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_dd")
    for layer in layers:
        active = {q for instruction in layer for q in instruction.qubits}
        for instruction in layer:
            out._instructions.append(instruction)
        for qubit in range(circuit.num_qubits):
            if qubit not in active:
                out.x(qubit)
                out.x(qubit)
    return out
