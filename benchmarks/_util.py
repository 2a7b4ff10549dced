"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (the
file name says which).  Numbers are printed and also written to
``benchmarks/results/<name>.txt`` so the artifacts survive pytest's
output capture.  That directory is gitignored; CI uploads it as the
``benchmark-smoke-results`` artifact.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    block = f"== {name} ==\n{text}\n"
    print(block)
    (RESULTS_DIR / f"{name}.txt").write_text(block)
    return block


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> list[str]:
    """Fixed-width text table (paper-style rows)."""
    rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return out


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 1e-3 or abs(value) >= 1e5:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
