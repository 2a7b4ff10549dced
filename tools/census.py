#!/usr/bin/env python
"""Census of the library's public surface: what can be set, what the
program sets, and what only tests reach.

Usage (from anywhere; stdlib only, no options)::

    python tools/census.py

It prints three counts and the lists behind them:

1. **settable values** — the defaulted parameters of the public
   functions, methods and ``__init__``s under ``src/repro``, plus the
   defaulted fields of its public dataclasses;
2. **values no program caller sets** — of those, the ones no call site
   in ``src/``, ``benchmarks/`` or ``oscarbench/`` sets.  Calls are
   matched by callee name (``f(...)``, ``obj.f(...)``; a class name for
   ``__init__`` and dataclass fields; ``cls(...)`` in a class body for
   that class).  A keyword, a position, ``*`` or ``**``, or passing a
   function or method to a helper (``once(benchmark, run_table5,
   seed=0)``) sets a value; passing a class to a helper
   (``_wrap(ShardedExecutor, "run", ...)``) does not instantiate it;
3. **test-only definitions** — public functions, classes and methods
   that no ``Name``, ``Attribute`` or identifier string (``getattr``)
   references anywhere in ``src/``, ``benchmarks/``, ``oscarbench/``,
   ``tools/`` or ``examples/``.  The definition's own body, ``__all__``
   lists and this file do not count.

Lists 2 and 3 are gates: the script exits 1 when a value on list 2 or
a definition on list 3 is missing from :data:`KEEP`.  A value no
program sets becomes the literal its default was, or :data:`KEEP`
states why it stays; a test-only definition either has a reason to
stay or is deleted.  Callee-name matching cannot see a call made
through a variable (such a value shows as unset until its call site
names it), and it counts ``**`` as setting every value.  The script
exits 1 as well when a :data:`KEEP` entry matches nothing, so the list
cannot go stale.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src"
CALLER_DIRS = ("src", "benchmarks", "oscarbench")
REFERENCE_DIRS = ("src", "benchmarks", "oscarbench", "tools", "examples")

_OPTIMIZER_OPTION = (
    "optimizer hyperparameter: the pipeline op's optimizer_options passes it to "
    "the constructor, and tuning the optimizer is the paper's Secs. 7-8 use case"
)

#: What stays although only tests reach it, each with its reason.  A key
#: is a test-only definition (list 3), a value (``module.f(name)``) or
#: every value of one callable (``module.f(``) on list 2.
KEEP: dict[str, str] = {
    "repro.quantum.unitary.circuits_equivalent": (
        "test oracle: statevector evolution and gate identities are checked "
        "against its independent Kronecker construction (circuit_unitary)"
    ),
    "repro.quantum.gates.is_unitary": "test oracle: every gate matrix is unitary",
    "repro.quantum.gates.is_hermitian": "test oracle: Hermitian gate generators",
    "repro.quantum.density.DensityMatrix.purity": (
        "test oracle: noise channels lower purity, unitaries keep it"
    ),
    "repro.quantum.density.DensityMatrix.from_statevector": (
        "test oracle: builds the pure-state reference a density run must match"
    ),
    "repro.quantum.batched_density.BatchedDensityMatrix.traces": (
        "test oracle: channels are trace preserving on the batched engine"
    ),
    "repro.quantum.batched_density.BatchedDensityMatrix.purities": (
        "test oracle: per-row purity against the serial density engine"
    ),
    "repro.quantum.batched_density.BatchedDensityMatrix.from_statevectors": (
        "test oracle: pure-state batches the batched density engine must match"
    ),
    "repro.quantum.batched.BatchedStatevector.norms": (
        "test oracle: batched gates keep every row normalised"
    ),
    "repro.quantum.circuit.QuantumCircuit.count_gates": (
        "test oracle: pins circuit structure (gate counts after folding)"
    ),
    "repro.quantum.circuit.QuantumCircuit.num_two_qubit_gates": (
        "test oracle: pins the two-qubit count the noise model scales with"
    ),
    "repro.quantum.statevector.Statevector.from_label": (
        "test oracle: basis states for gate and sampler checks"
    ),
    "repro.problems.ising.IsingProblem.cost_of_bitstring": (
        "test oracle: per-bitstring cost the cost diagonal must match"
    ),
    "repro.problems.ising.IsingProblem.optimal_cost": (
        "test oracle: brute-force optimum for small problems"
    ),
    "repro.problems.maxcut.cut_value": (
        "test oracle: MaxCut value the Ising mapping must reproduce"
    ),
    "repro.mitigation.readout.ReadoutMitigator.confusion_matrix": (
        "test oracle: the dense matrix the factorised inversion must match"
    ),
    "repro.quantum.noise.readout_confusion_matrix": (
        "test oracle: the dense readout channel the noise model must match"
    ),
    "repro.hardware.latency.LatencyModel.tail_to_median_ratio": (
        "test oracle: pins the heavy latency tail the scheduler is built for"
    ),
    "repro.service.client.LandscapeClient.evaluate_ansatz": (
        "equivalence hook: entry point of the daemon and daemon-tcp engines; "
        "a golden vector pins its evaluate op"
    ),
    "repro.landscape.grid.ParameterGrid.iter_points": (
        "equivalence hook: the equivalence tests enumerate grids with it"
    ),
    "repro.landscape.generator.evaluate_points_chunked(batch_size)": (
        "engine-level chunk pin: every program path passes None and lets "
        "resolve_batch_size decide; the chunk-invariance and slice tests "
        "force chunk splits with it"
    ),
    "repro.service.shards.ShardedExecutor(shard_points)": (
        "engine-level shard pin: every program path lets plan_shards decide; "
        "the harness sharded engine and the shard tests force splits with it, "
        "and oscarbench/spans.py reads executor.shard_points"
    ),
    "repro.service.client.LandscapeClient.evaluate_ansatz(": (
        "equivalence hook: the daemon and daemon-tcp engines pass noise, "
        "shots and rng"
    ),
    "repro.cli.main(argv)": (
        "console-script entry point: the installed oscar-repro calls it with "
        "no argument, and tests/test_cli.py passes argv lists"
    ),
    "repro.optimizers.adam.Adam(": _OPTIMIZER_OPTION,
    "repro.optimizers.adam.GradientDescent(": _OPTIMIZER_OPTION,
    "repro.optimizers.scipy_wrappers.Cobyla(": _OPTIMIZER_OPTION,
    "repro.optimizers.scipy_wrappers.NelderMead(": _OPTIMIZER_OPTION,
    "repro.optimizers.spsa.Spsa(": _OPTIMIZER_OPTION,
}


@dataclass(frozen=True)
class Definition:
    """A public function, class or method under ``src/repro``."""

    qualname: str
    name: str
    path: Path
    first: int
    last: int


@dataclass(frozen=True)
class Value:
    """One settable value: a defaulted parameter or dataclass field."""

    label: str
    callee: str
    keyword: str
    position: int | None


@dataclass(frozen=True)
class Call:
    """What one call site passes: positions, keywords, unpacking."""

    positional: int
    keywords: frozenset[str]
    unpacks: bool


def _files(directories: tuple[str, ...]) -> list[Path]:
    return [
        path
        for directory in directories
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path.resolve() != Path(__file__).resolve()
    ]


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(LIBRARY).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _callee(target) == "dataclass":
            return True
    return False


def _parameter_values(
    function: ast.FunctionDef, label: str, callee: str, skip_first: bool
) -> list[Value]:
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    if skip_first:
        positional = positional[1:]
    offset = len(positional) - len(arguments.defaults)
    values = [
        Value(f"{label}({arg.arg})", callee, arg.arg, offset + index)
        for index, arg in enumerate(positional[offset:])
    ]
    values += [
        Value(f"{label}({arg.arg})", callee, arg.arg, None)
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    return values


def _field_values(node: ast.ClassDef, label: str) -> list[Value]:
    fields = [
        statement
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and "ClassVar" not in ast.unparse(statement.annotation)
    ]
    return [
        Value(f"{label}({field.target.id})", node.name, field.target.id, position)
        for position, field in enumerate(fields)
        if field.value is not None and "init=False" not in ast.unparse(field.value)
    ]


def _definition(qualname: str, node: ast.AST, path: Path) -> Definition:
    return Definition(qualname, node.name, path, node.lineno, node.end_lineno)


def scan_library() -> tuple[list[Definition], list[Value]]:
    """Public definitions and settable values under ``src/repro``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions: list[Definition] = []
    values: list[Value] = []
    for path in _files(("src",)):
        module = _module_name(path)
        if not all(_public(part) for part in module.split(".")):
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            if not _public(node.name):
                continue
            label = f"{module}.{node.name}"
            definitions.append(_definition(label, node, path))
            if isinstance(node, functions):
                values += _parameter_values(node, label, node.name, skip_first=False)
                continue
            if _is_dataclass(node):
                values += _field_values(node, label)
            for member in node.body:
                if not isinstance(member, functions):
                    continue
                if member.name == "__init__":
                    values += _parameter_values(member, label, node.name, True)
                elif _public(member.name):
                    qualname = f"{label}.{member.name}"
                    definitions.append(_definition(qualname, member, path))
                    static = any(
                        _callee(decorator) == "staticmethod"
                        for decorator in member.decorator_list
                    )
                    values += _parameter_values(
                        member, qualname, member.name, skip_first=not static
                    )
    return definitions, values


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls_in(node: ast.AST, owner: str | None):
    """Each call under ``node`` with the class whose body encloses it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, owner
        yield from _calls_in(
            child, child.name if isinstance(child, ast.ClassDef) else owner
        )


def scan_calls() -> dict[str, list[Call]]:
    """Every program call site, keyed by callee name.  A function or
    method passed as a positional argument is called with the arguments
    after it; a class passed so is not instantiated.  ``cls(...)`` in a
    class body calls that class."""
    trees = [ast.parse(path.read_text()) for path in _files(CALLER_DIRS)]
    classes = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    calls: dict[str, list[Call]] = {}
    for tree in trees:
        for node, owner in _calls_in(tree, None):
            keywords = frozenset(keyword.arg for keyword in node.keywords)
            unpacks = None in keywords or any(
                isinstance(arg, ast.Starred) for arg in node.args
            )
            name = _callee(node.func)
            if name == "cls" and owner is not None:
                name = owner
            targets = [(name, len(node.args))] + [
                (_callee(arg), len(node.args) - index - 1)
                for index, arg in enumerate(node.args)
            ]
            for index, (target, positional) in enumerate(targets):
                if target is None or (index and target in classes):
                    continue
                calls.setdefault(target, []).append(Call(positional, keywords, unpacks))
    return calls


def _is_set(value: Value, calls: dict[str, list[Call]]) -> bool:
    return any(
        call.unpacks
        or value.keyword in call.keywords
        or (value.position is not None and call.positional > value.position)
        for call in calls.get(value.callee, ())
    )


def _in_all_lists(tree: ast.Module) -> set[int]:
    """Ids of the nodes inside ``__all__ = [...]`` (and ``+=``)."""
    return {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        and "__all__" in ast.unparse(node)
        for inner in ast.walk(node.value)
    }


def scan_references() -> dict[str, list[tuple[Path, int]]]:
    """Every name a non-test file mentions, with where it does."""
    references: dict[str, list[tuple[Path, int]]] = {}
    for path in _files(REFERENCE_DIRS):
        tree = ast.parse(path.read_text())
        exported = _in_all_lists(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = _callee(node)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in exported
            ):
                name = node.value
            else:
                continue
            references.setdefault(name, []).append((path, node.lineno))
    return references


def _referenced(
    definition: Definition, references: dict[str, list[tuple[Path, int]]]
) -> bool:
    return any(
        path != definition.path or not definition.first <= line <= definition.last
        for path, line in references.get(definition.name, ())
    )


def _callable_key(label: str) -> str:
    """``module.f(name)`` -> ``module.f(``, the key for all of f's values."""
    return label.split("(")[0] + "("


def main() -> int:
    definitions, values = scan_library()
    calls = scan_calls()
    references = scan_references()
    unset = [value.label for value in values if not _is_set(value, calls)]
    test_only = [
        definition.qualname
        for definition in definitions
        if not _referenced(definition, references)
    ]
    reasons = {
        label: KEEP.get(label) or KEEP.get(_callable_key(label)) for label in unset
    }
    unkept = [label for label, reason in reasons.items() if reason is None]
    missing = [name for name in test_only if name not in KEEP]
    matched = {*test_only, *unset, *map(_callable_key, unset)}
    stale = sorted(set(KEEP) - matched)

    print(f"settable values: {len(values)}")
    print(f"values no program caller sets: {len(unset)} ({len(unkept)} not in KEEP)")
    print(f"test-only definitions: {len(test_only)} ({len(missing)} not in KEEP)")
    print("\n# 1. settable values")
    for value in values:
        print(f"  {value.label}")
    print("\n# 2. values no program caller sets")
    for label, reason in reasons.items():
        print(f"  {label}: {reason or 'NOT IN KEEP: delete it or keep it'}")
    print("\n# 3. test-only definitions")
    for name in test_only:
        print(f"  {name}: {KEEP.get(name, 'NOT IN KEEP: delete it or keep it')}")
    for name in stale:
        print(f"  {name}: a KEEP entry that matches nothing; remove it")
    return 1 if unkept or missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
