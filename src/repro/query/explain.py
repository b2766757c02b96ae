"""Structured EXPLAIN output for planned queries.

Every planned execution produces an :class:`Explain`: which access path
ran, what the planner expected, what actually happened, and whether the
plan cache already knew the query's shape.  Distributed targets nest one
child per participating site under an aggregate root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["Explain"]


@dataclass
class Explain:
    """What one query execution did and what the planner predicted."""

    #: which target/site executed ("local", a site name, a model name)
    site: str
    #: access-path description ("full scan ...", "temporal-overlap ...")
    path: str
    #: machine-readable path kind ("full-scan", "attr-eq", ...)
    path_kind: str
    #: planner's candidate-row estimate
    estimated_rows: int
    #: records that matched the predicate
    actual_rows: int
    #: candidates examined to answer: records a scan read, or entries an
    #: index probe yielded (fetched or not)
    rows_scanned: int
    #: wall time of plan + execute, so estimated-vs-actual rows carry a
    #: latency column (distributed roots report the whole scatter/gather)
    duration_ms: float = 0.0
    #: True when the predicate shape was already in the plan cache
    cache_hit: bool = False
    #: True when an index (not a full scan) produced the candidates
    used_index: bool = False
    #: value-free predicate shape (the plan-cache key)
    shape: Optional[str] = None
    #: why the adaptive engine deviated from the cached/static plan
    #: (drift re-rank, hot-key cache hit); ``None`` when nothing adapted
    adapted: Optional[str] = None
    notes: List[str] = field(default_factory=list)
    #: per-site explains for distributed targets
    children: List["Explain"] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The explain tree as plain data (reports, JSON)."""
        data = {
            "site": self.site,
            "path": self.path,
            "path_kind": self.path_kind,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "rows_scanned": self.rows_scanned,
            "duration_ms": self.duration_ms,
            "cache_hit": self.cache_hit,
            "used_index": self.used_index,
            "shape": self.shape,
        }
        if self.adapted is not None:
            data["adapted"] = self.adapted
        if self.notes:
            data["notes"] = list(self.notes)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, payload: dict) -> "Explain":
        """Inverse of :meth:`to_dict` (the wire protocol's decode path)."""
        return cls(
            site=payload["site"],
            path=payload["path"],
            path_kind=payload["path_kind"],
            estimated_rows=payload["estimated_rows"],
            actual_rows=payload["actual_rows"],
            rows_scanned=payload["rows_scanned"],
            duration_ms=payload.get("duration_ms", 0.0),
            cache_hit=payload.get("cache_hit", False),
            used_index=payload.get("used_index", False),
            shape=payload.get("shape"),
            adapted=payload.get("adapted"),
            notes=list(payload.get("notes", [])),
            children=[cls.from_dict(child) for child in payload.get("children", [])],
        )

    def format(self, indent: int = 0) -> str:
        """Render the explain tree as indented text (the CLI's output)."""
        pad = "  " * indent
        lines = [
            f"{pad}[{self.site}] {self.path}",
            f"{pad}  estimated rows: {self.estimated_rows}"
            f"   actual rows: {self.actual_rows}"
            f"   rows scanned: {self.rows_scanned}"
            f"   duration: {self.duration_ms:.3f} ms",
            f"{pad}  index used: {'yes' if self.used_index else 'no'}"
            f"   plan cache: {'hit' if self.cache_hit else 'miss'}",
        ]
        if self.adapted is not None:
            lines.append(f"{pad}  adapted: {self.adapted}")
        for note in self.notes:
            lines.append(f"{pad}  note: {note}")
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()
