"""The uniform result type of the :class:`~repro.api.client.PassClient` façade.

Before the façade existed, callers had to deal with two shapes: the
local :class:`~repro.core.pass_store.PassStore` returned bare ``PName``
lists while the architecture models returned
:class:`~repro.distributed.base.OperationResult` objects carrying cost.
:class:`Result` unifies them -- records, cost, notes and pagination in
one envelope, whatever the target answered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set

from repro.core.provenance import PName

__all__ = ["Cost", "Result"]


@dataclass
class Cost:
    """What answering an operation cost.

    Local stores answer at zero simulated network cost; the architecture
    models charge the latency, messages and bytes of the simulated
    traffic plus the sites that had to participate.
    """

    latency_ms: float = 0.0
    messages: int = 0
    bytes: int = 0
    #: records materialized and evaluated to answer (planner-honest)
    rows_scanned: int = 0
    sites: List[str] = field(default_factory=list)

    def add(self, other: "Cost") -> "Cost":
        """Fold another cost into this one (batched operations)."""
        self.latency_ms += other.latency_ms
        self.messages += other.messages
        self.bytes += other.bytes
        self.rows_scanned += other.rows_scanned
        for site in other.sites:
            if site not in self.sites:
                self.sites.append(site)
        return self


@dataclass
class Result:
    """Records plus cost plus pagination: the façade's one answer shape.

    ``total`` is the number of matches *before* pagination; ``records``
    is the page actually returned (``offset`` into the full match list).
    For non-query operations (publish, lineage, locate) the page is the
    whole answer and ``total == len(records)``.
    """

    records: List[PName] = field(default_factory=list)
    cost: Cost = field(default_factory=Cost)
    notes: List[str] = field(default_factory=list)
    total: Optional[int] = None
    offset: int = 0
    #: how the target served a ``query`` (the :class:`~repro.query.explain.Explain`
    #: of this very execution), where it reports one; local to the process
    #: that ran the query -- it neither compares nor crosses the wire
    explain: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.total is None:
            self.total = len(self.records)

    # -- sequence-ish access --------------------------------------------
    def __iter__(self) -> Iterator[PName]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def first(self) -> Optional[PName]:
        """The first record of the page, or ``None`` when empty."""
        return self.records[0] if self.records else None

    def pname_set(self) -> Set[PName]:
        """The page as a set (order-insensitive comparisons in tests)."""
        return set(self.records)

    @property
    def has_more(self) -> bool:
        """True when pagination cut the answer short of ``total``."""
        return self.offset + len(self.records) < (self.total or 0)

    # -- construction / combination -------------------------------------
    @classmethod
    def from_operation(cls, operation, total: Optional[int] = None, offset: int = 0) -> "Result":
        """Wrap an architecture model's ``OperationResult``.

        Duck-typed on purpose: anything with ``pnames`` / ``latency_ms``
        / ``messages`` / ``bytes`` / ``sites_contacted`` / ``notes``
        converts, keeping this module free of a dependency on
        :mod:`repro.distributed`.
        """
        return cls(
            records=list(operation.pnames),
            cost=Cost(
                latency_ms=operation.latency_ms,
                messages=operation.messages,
                bytes=operation.bytes,
                rows_scanned=getattr(operation, "rows_scanned", 0),
                sites=list(operation.sites_contacted),
            ),
            notes=list(operation.notes),
            total=total,
            offset=offset,
        )

    def merge(self, other: "Result") -> "Result":
        """Fold another result into this one (used by batched publishes)."""
        self.records.extend(other.records)
        self.cost.add(other.cost)
        self.notes.extend(other.notes)
        self.total = (self.total or 0) + (other.total or 0)
        return self
