"""The container every experiment returns.

An :class:`ExperimentResult` is a small, self-describing table: the
experiment id (matching DESIGN.md / EXPERIMENTS.md), the paper claim it
checks, column headers, data rows and free-form notes.  Benchmarks print
them; tests assert on their rows; EXPERIMENTS.md quotes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """One experiment's regenerated table."""

    experiment_id: str
    title: str
    claim: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append a row; must match the header width."""
        row = list(values)
        if len(row) != len(self.headers):
            raise ValueError(
                f"row width {len(row)} does not match headers {len(self.headers)}"
            )
        self.rows.append(row)

    def column(self, name: str) -> List[object]:
        """All values of one column (by header name)."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def row_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries keyed by header."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def find_row(self, **criteria: object) -> Optional[Dict[str, object]]:
        """First row matching every ``header=value`` criterion, as a dict."""
        for row in self.row_dicts():
            if all(row.get(key) == value for key, value in criteria.items()):
                return row
        return None
