"""The provenance query model.

Section III of the paper derives the query classes a provenance-aware
sensor store must support, from three motivating domains:

* document versioning ("show me the file as it was yesterday", "find the
  person who removed this error code"),
* experimental science ("find all the raw data from which this data set
  was derived", "all downstream data is tainted and must be locatable"),
* sensor applications ("show me everything we've done for this patient",
  "give heart rate profiles for everyone handled by EMT X").

These reduce to a small algebra:

* **attribute predicates** over the name-value pairs of provenance
  records (equality, ranges, substring, geographic radius, membership),
* **conjunction / disjunction / negation** of predicates,
* **lineage predicates** (derived-from X, ancestor-of Y, produced-by
  agent A) that require transitive closure,
* and **query descriptors** that bundle a predicate with options such as
  result limits and whether removed data sets should be included.

The module is pure data + evaluation logic against in-memory provenance
records; execution strategy (which index to consult, which site to ask)
belongs to the PASS store and the architecture models.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.attributes import (
    AttributeValue,
    GeoPoint,
    _ordering_key,
    canonical_encode,
    compare_values,
)
from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import ConfigurationError, QueryError

__all__ = [
    "Predicate",
    "AttributeEquals",
    "AttributeRange",
    "AttributeContains",
    "AttributeIn",
    "AttributeExists",
    "NearLocation",
    "TimeWindowOverlaps",
    "AgentIs",
    "AnnotationMatches",
    "IsRaw",
    "And",
    "Or",
    "Not",
    "DerivedFrom",
    "AncestorOf",
    "Query",
    "TRUE",
]


class LineageOracle(ABC):
    """What a lineage predicate needs from its execution environment.

    Anything that can answer "is ``ancestor`` an ancestor of ``node``"
    can evaluate :class:`DerivedFrom` / :class:`AncestorOf` -- the local
    PASS store, a closure strategy, or a distributed model's coordinator.
    """

    @abstractmethod
    def is_ancestor(self, ancestor: PName, descendant: PName) -> bool:
        """True when ``descendant`` is transitively derived from ``ancestor``."""


class Predicate(ABC):
    """Base class of all query predicates."""

    #: True when evaluating this predicate (or any sub-predicate) needs a
    #: lineage oracle, i.e. transitive closure.  Architecture models that
    #: cannot do closure check this flag and refuse such queries.
    requires_lineage = False

    @abstractmethod
    def matches(
        self,
        pname: PName,
        record: ProvenanceRecord,
        lineage: Optional[LineageOracle] = None,
    ) -> bool:
        """Evaluate the predicate against one record."""

    def attributes_referenced(self) -> List[str]:
        """Attribute names this predicate constrains (for index selection)."""
        return []

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True)
class _AlwaysTrue(Predicate):
    """Matches every record; the default predicate of an unconstrained query."""

    def matches(self, pname, record, lineage=None) -> bool:
        return True


#: The trivial predicate that matches everything.
TRUE = _AlwaysTrue()


@dataclass(frozen=True)
class AttributeEquals(Predicate):
    """``record[name] == value`` (strict typed equality)."""

    name: str
    value: AttributeValue

    def matches(self, pname, record, lineage=None) -> bool:
        stored = record.get(self.name)
        if stored is None:
            return False
        return canonical_encode(stored) == canonical_encode(self.value)

    def attributes_referenced(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class AttributeRange(Predicate):
    """``low <= record[name] <= high`` over order-compatible values.

    Either bound may be ``None`` for a half-open range.  Used heavily for
    time windows ("from moment of arrival until now") and numeric
    thresholds ("heart rate above 120").
    """

    name: str
    low: Optional[AttributeValue] = None
    high: Optional[AttributeValue] = None
    include_low: bool = True
    include_high: bool = True

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise QueryError("AttributeRange needs at least one bound")

    def matches(self, pname, record, lineage=None) -> bool:
        stored = record.get(self.name)
        if stored is None:
            return False
        try:
            if self.low is not None:
                cmp = compare_values(stored, self.low)
                if cmp < 0 or (cmp == 0 and not self.include_low):
                    return False
            if self.high is not None:
                cmp = compare_values(stored, self.high)
                if cmp > 0 or (cmp == 0 and not self.include_high):
                    return False
        except ConfigurationError:
            # Values of a different kind cannot fall inside the range.
            return False
        return True

    def attributes_referenced(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class AttributeContains(Predicate):
    """Substring match on string attributes (case-insensitive)."""

    name: str
    needle: str

    def matches(self, pname, record, lineage=None) -> bool:
        stored = record.get(self.name)
        if not isinstance(stored, str):
            return False
        return self.needle.lower() in stored.lower()

    def attributes_referenced(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class AttributeIn(Predicate):
    """``record[name]`` is one of a set of values."""

    name: str
    values: Sequence[AttributeValue]

    def matches(self, pname, record, lineage=None) -> bool:
        stored = record.get(self.name)
        if stored is None:
            return False
        encoded = canonical_encode(stored)
        return any(canonical_encode(value) == encoded for value in self.values)

    def attributes_referenced(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class AttributeExists(Predicate):
    """The record carries attribute ``name`` at all."""

    name: str

    def matches(self, pname, record, lineage=None) -> bool:
        return record.get(self.name) is not None

    def attributes_referenced(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class NearLocation(Predicate):
    """The record's ``name`` attribute is a GeoPoint within ``radius_km``.

    Sensor data is locale-specific; "a commuter investigating alternate
    routes will likely search by sensor location".
    """

    name: str
    centre: GeoPoint
    radius_km: float

    def matches(self, pname, record, lineage=None) -> bool:
        stored = record.get(self.name)
        if not isinstance(stored, GeoPoint):
            return False
        return stored.distance_km(self.centre) <= self.radius_km

    def attributes_referenced(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class TimeWindowOverlaps(Predicate):
    """The record's time window overlaps the closed interval [start, end].

    Tuple sets are "collections of readings grouped by some property,
    typically time", so the canonical temporal query asks which tuple
    sets' ``[window_start, window_end]`` intervals intersect a query
    window.  Records lacking either endpoint (or carrying non-timestamp
    values there) never match -- exactly the population the store's
    :class:`~repro.index.temporal_index.TemporalIndex` maintains, which
    is what lets the planner serve this predicate from that index.
    """

    start: "AttributeValue"
    end: "AttributeValue"
    start_attr: str = "window_start"
    end_attr: str = "window_end"

    def __post_init__(self) -> None:
        from repro.core.attributes import Timestamp

        if not isinstance(self.start, Timestamp) or not isinstance(self.end, Timestamp):
            raise QueryError("TimeWindowOverlaps bounds must be Timestamps")
        if self.end.seconds < self.start.seconds:
            raise QueryError("TimeWindowOverlaps end precedes its start")

    def matches(self, pname, record, lineage=None) -> bool:
        from repro.core.attributes import Timestamp

        window_start = record.get(self.start_attr)
        window_end = record.get(self.end_attr)
        if not isinstance(window_start, Timestamp) or not isinstance(window_end, Timestamp):
            return False
        return (
            window_start.seconds <= self.end.seconds
            and window_end.seconds >= self.start.seconds
        )

    def attributes_referenced(self) -> List[str]:
        return [self.start_attr, self.end_attr]


@dataclass(frozen=True)
class AgentIs(Predicate):
    """An agent of the record matches by name (and optionally kind/version).

    "Give heart rate profiles for everyone handled by EMT X", "finding
    tuple sets handled by a particular postprocessing program".
    """

    name: str
    kind: Optional[str] = None
    version: Optional[str] = None

    def matches(self, pname, record, lineage=None) -> bool:
        for agent in record.agents:
            if agent.name != self.name:
                continue
            if self.kind is not None and agent.kind != self.kind:
                continue
            if self.version is not None and agent.version != self.version:
                continue
            return True
        return False


@dataclass(frozen=True)
class AnnotationMatches(Predicate):
    """Some annotation on the record has key ``key`` (and value, if given)."""

    key: str
    value: Optional[AttributeValue] = None

    def matches(self, pname, record, lineage=None) -> bool:
        for annotation in record.annotations:
            if annotation.key != self.key:
                continue
            if self.value is None:
                return True
            if canonical_encode(annotation.value) == canonical_encode(self.value):
                return True
        return False


@dataclass(frozen=True)
class IsRaw(Predicate):
    """The record describes a raw capture (no ancestors) -- or, negated, derived data."""

    raw: bool = True

    def matches(self, pname, record, lineage=None) -> bool:
        return record.is_raw() == self.raw


@dataclass(frozen=True)
class And(Predicate):
    """Every sub-predicate matches."""

    parts: Sequence[Predicate]

    def __post_init__(self) -> None:
        if not self.parts:
            raise QueryError("And() needs at least one sub-predicate")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def requires_lineage(self) -> bool:  # type: ignore[override]
        return any(part.requires_lineage for part in self.parts)

    def matches(self, pname, record, lineage=None) -> bool:
        return all(part.matches(pname, record, lineage) for part in self.parts)

    def attributes_referenced(self) -> List[str]:
        names: List[str] = []
        for part in self.parts:
            names.extend(part.attributes_referenced())
        return names


@dataclass(frozen=True)
class Or(Predicate):
    """At least one sub-predicate matches."""

    parts: Sequence[Predicate]

    def __post_init__(self) -> None:
        if not self.parts:
            raise QueryError("Or() needs at least one sub-predicate")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def requires_lineage(self) -> bool:  # type: ignore[override]
        return any(part.requires_lineage for part in self.parts)

    def matches(self, pname, record, lineage=None) -> bool:
        return any(part.matches(pname, record, lineage) for part in self.parts)

    def attributes_referenced(self) -> List[str]:
        names: List[str] = []
        for part in self.parts:
            names.extend(part.attributes_referenced())
        return names


@dataclass(frozen=True)
class Not(Predicate):
    """The sub-predicate does not match."""

    part: Predicate

    @property
    def requires_lineage(self) -> bool:  # type: ignore[override]
        return self.part.requires_lineage

    def matches(self, pname, record, lineage=None) -> bool:
        return not self.part.matches(pname, record, lineage)

    def attributes_referenced(self) -> List[str]:
        return self.part.attributes_referenced()


@dataclass(frozen=True)
class DerivedFrom(Predicate):
    """The record is (transitively) derived from ``ancestor``.

    This is the forward taint query: every data set downstream of a
    suspect input.  ``include_self`` controls whether the ancestor itself
    matches.
    """

    ancestor: PName
    include_self: bool = False

    requires_lineage = True

    def matches(self, pname, record, lineage=None) -> bool:
        if lineage is None:
            raise QueryError("DerivedFrom requires a lineage oracle")
        if pname.digest == self.ancestor.digest:
            return self.include_self
        return lineage.is_ancestor(self.ancestor, pname)


@dataclass(frozen=True)
class AncestorOf(Predicate):
    """The record is a (transitive) ancestor of ``descendant``.

    The backward query: "find all the raw data from which this data set
    was derived" composes this with :class:`IsRaw`.
    """

    descendant: PName
    include_self: bool = False

    requires_lineage = True

    def matches(self, pname, record, lineage=None) -> bool:
        if lineage is None:
            raise QueryError("AncestorOf requires a lineage oracle")
        if pname.digest == self.descendant.digest:
            return self.include_self
        return lineage.is_ancestor(pname, self.descendant)


@dataclass(frozen=True)
class Query:
    """A complete query: a predicate plus execution options.

    Parameters
    ----------
    predicate:
        The predicate to evaluate (default: match everything).
    limit:
        Maximum number of results; ``None`` for all.
    include_removed:
        Whether to include data sets whose underlying data was removed
        (their provenance survives; PASS property P4).
    order_by:
        Optional attribute name to sort results by, ascending *by value*
        -- the ordering :class:`AttributeRange` compares with, so
        ``2 < 9 < 10`` and ``1``, ``1.0``, ``True`` tie; ties go by
        digest, and records lacking the attribute sort last.
    """

    predicate: Predicate = TRUE
    limit: Optional[int] = None
    include_removed: bool = True
    order_by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit <= 0:
            raise QueryError("limit must be positive (or None)")

    @property
    def requires_lineage(self) -> bool:
        """True when executing this query needs transitive closure support."""
        return self.predicate.requires_lineage

    def attributes_referenced(self) -> List[str]:
        """Attribute names the predicate constrains, for index selection."""
        return self.predicate.attributes_referenced()

    def evaluate(
        self,
        candidates: Iterable[tuple],
        lineage: Optional[LineageOracle] = None,
        removed: Optional[Callable[[PName], bool]] = None,
    ) -> List[PName]:
        """Evaluate against an iterable of ``(PName, ProvenanceRecord)`` pairs.

        This is the generic scan path: the whole predicate on every
        candidate.  (The planner's executor tests only what its access
        path left unanswered, then shares :meth:`arrange`.)
        """
        return [pname for pname, _ in self.evaluate_pairs(candidates, lineage, removed)]

    def evaluate_pairs(
        self,
        candidates: Iterable[tuple],
        lineage: Optional[LineageOracle] = None,
        removed: Optional[Callable[[PName], bool]] = None,
    ) -> List[tuple]:
        """Like :meth:`evaluate` but keeps the ``(PName, record)`` pairs."""
        matched: List[tuple] = []
        for pname, record in candidates:
            if not self.include_removed and removed is not None and removed(pname):
                continue
            if self.predicate.matches(pname, record, lineage):
                matched.append((pname, record))
        return self.arrange(matched)

    def arrange(self, matched: List[tuple]) -> List[tuple]:
        """``order_by`` and ``limit`` applied to ``(PName, record)`` pairs that already matched."""
        if self.order_by is not None:
            order_attr = self.order_by

            def sort_key(item):
                value = item[1].get(order_attr)
                if value is None:
                    return (1, (), item[0].digest)
                return (0, _ordering_key(value), item[0].digest)

            matched = sorted(matched, key=sort_key)
        if self.limit is not None:
            matched = matched[: self.limit]
        return matched
