"""Table 3 — reconstruction errors for H2 and LiH landscapes with
Two-local and UCCSD ansatzes."""

from __future__ import annotations

from _util import emit, format_table, once

from repro.experiments.tables import run_table3

PAPER_VALUES = [
    ("H2", "Two-local", 14, 0.171),
    ("LiH", "Two-local", 7, 0.678),
    ("H2", "UCCSD", 14, 0.345),
    ("H2", "UCCSD", 50, 0.005),
    ("LiH", "UCCSD", 7, 0.856),
]


def test_table3(benchmark):
    rows = once(benchmark, run_table3, repeats=3, seed=0)
    table_rows = []
    for row, (molecule, ansatz, points, paper) in zip(rows, PAPER_VALUES):
        assert row.problem == molecule and row.ansatz == ansatz
        table_rows.append(
            [
                molecule,
                ansatz,
                row.num_qubits,
                row.num_parameters,
                points,
                row.nrmse,
                paper,
            ]
        )
    emit(
        "table3_chemistry",
        format_table(
            ["molecule", "ansatz", "#qubits", "#params", "#samples/dim", "NRMSE (ours)", "NRMSE (paper)"],
            table_rows,
        ),
    )
    by_key = {(r.problem, r.ansatz, r.points_per_axis): r.nrmse for r in rows}
    # The paper's headline relationship: H2/UCCSD error collapses when
    # the slice grid densifies from 14 to 50 points per axis.
    assert by_key[("H2", "UCCSD", 50)] < by_key[("H2", "UCCSD", 14)]
