"""Plain-text rendering of experiment results.

The paper's evaluation is a discussion, not charts; ours regenerates it
as tables.  This module renders :class:`~repro.eval.result.ExperimentResult`
objects as aligned ASCII tables suitable for terminals, EXPERIMENTS.md
and the benchmark output files.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.eval.result import ExperimentResult

__all__ = ["format_table", "format_experiment", "format_many"]


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") if value else "0"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render headers + rows as an aligned ASCII table."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered_rows:
        lines.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))
    return "\n".join(lines)


def format_experiment(result: ExperimentResult) -> str:
    """Render one experiment: title, claim, table, notes."""
    lines = [
        f"[{result.experiment_id}] {result.title}",
        f"claim: {result.claim}",
        "",
        format_table(result.headers, result.rows),
    ]
    for note in result.notes:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines)


def format_many(results: Iterable[ExperimentResult]) -> str:
    """Render several experiments separated by rules."""
    blocks = [format_experiment(result) for result in results]
    separator = "\n\n" + "=" * 78 + "\n\n"
    return separator.join(blocks)
