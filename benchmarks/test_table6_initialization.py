"""Table 6 — QPU queries to convergence with random vs OSCAR-chosen
initial points, for ADAM and COBYLA, ideal and noisy.

Paper shape: OSCAR initialization slashes ADAM's optimization queries
(~5-8x) and remains cheaper even after adding reconstruction queries;
for COBYLA (few queries by nature) the reconstruction overhead makes
OSCAR slower in total — both relationships are asserted."""

from __future__ import annotations

from _util import emit, format_table, once

from repro.experiments import run_table6_initialization

PAPER = {
    ("adam", False): (3127, 370, 620),
    ("adam", True): (3123, 661, 911),
    ("cobyla", False): (38, 32, 282),
    ("cobyla", True): (40, 32, 282),
}


def test_table6(benchmark):
    rows = once(
        benchmark,
        run_table6_initialization,
        optimizers=("adam", "cobyla"),
        noisy_settings=(False, True),
        num_qubits=8,
        num_instances=3,
        sampling_fraction=0.08,
        seed=0,
    )
    table = []
    for row in rows:
        paper_random, paper_oscar, paper_total = PAPER[(row.optimizer, row.noisy)]
        table.append(
            [
                row.optimizer,
                "noisy" if row.noisy else "ideal",
                row.random_init_queries,
                row.oscar_init_queries,
                row.oscar_total_queries,
                f"{paper_random}/{paper_oscar}/{paper_total}",
            ]
        )
    emit(
        "table6_initialization",
        format_table(
            [
                "optimizer", "setting",
                "random, opt.", "OSCAR, opt.", "OSCAR, opt.+recon.",
                "paper (rand/OSCAR/OSCAR+recon)",
            ],
            table,
        ),
    )
    by_key = {(r.optimizer, r.noisy): r for r in rows}
    for noisy in (False, True):
        adam = by_key[("adam", noisy)]
        # OSCAR-initialized ADAM needs fewer optimization queries.
        assert adam.oscar_init_queries <= adam.random_init_queries
        # And the final solution is at least as good.
        assert adam.oscar_final_value <= adam.random_final_value + 0.1
        cobyla = by_key[("cobyla", noisy)]
        # COBYLA is query-frugal: reconstruction overhead dominates.
        assert cobyla.oscar_total_queries > cobyla.random_init_queries
