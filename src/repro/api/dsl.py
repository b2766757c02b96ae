"""A fluent query-builder DSL that lowers to the :mod:`repro.core.query` algebra.

The predicate classes are the execution model; spelling them out is
verbose for the common cases.  ``Q`` builds them from ordinary Python
expressions::

    from repro.api import Q

    Q.attr("patient") == "p1"                  # AttributeEquals
    Q.attr("heart_rate") > 120                 # AttributeRange (open low bound)
    Q.attr("city").one_of("london", "boston")  # AttributeIn
    (Q.attr("domain") == "traffic") & Q.derived_from(pname)

Everything the DSL produces *is* a :class:`~repro.core.query.Predicate`,
so the existing combinators (``&``, ``|``, ``~``) and every execution
path (local store, architecture models) work unchanged -- the DSL is
sugar, not a second query engine.

``Q.find(...)`` starts a :class:`QueryBuilder` for the execution options
(:class:`~repro.core.query.Query` fields: limit, ordering, removed-data
visibility).
"""

from __future__ import annotations

from typing import Optional

from repro.core.attributes import AttributeValue, GeoPoint
from repro.core.provenance import PName
from repro.core.query import (
    TRUE,
    AgentIs,
    AncestorOf,
    And,
    AnnotationMatches,
    AttributeContains,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    DerivedFrom,
    IsRaw,
    NearLocation,
    Not,
    Or,
    Predicate,
    Query,
    TimeWindowOverlaps,
)
from repro.errors import QueryError

__all__ = ["Q", "Attr", "QueryBuilder", "as_query", "coerce_pname"]


def coerce_pname(value) -> PName:
    """Accept a PName, or anything carrying one (TupleSet, ProvenanceRecord)."""
    if isinstance(value, PName):
        return value
    pname = getattr(value, "pname", None)
    if isinstance(pname, PName):
        return pname
    if callable(pname):
        produced = pname()
        if isinstance(produced, PName):
            return produced
    raise QueryError(f"expected a PName (or an object carrying one), got {value!r}")


class Attr:
    """One attribute name, waiting for a comparison to become a predicate.

    Comparison operators return :class:`~repro.core.query.Predicate`
    instances, so an ``Attr`` deliberately is not hashable or usable in
    boolean tests itself.
    """

    __slots__ = ("name",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, name: str) -> None:
        if not name:
            raise QueryError("attribute name must be non-empty")
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Q.attr({self.name!r})"

    # -- comparisons -> predicates --------------------------------------
    def __eq__(self, value) -> Predicate:  # type: ignore[override]
        return AttributeEquals(self.name, value)

    def __ne__(self, value) -> Predicate:  # type: ignore[override]
        return Not(AttributeEquals(self.name, value))

    def __lt__(self, value) -> Predicate:
        return AttributeRange(self.name, high=value, include_high=False)

    def __le__(self, value) -> Predicate:
        return AttributeRange(self.name, high=value)

    def __gt__(self, value) -> Predicate:
        return AttributeRange(self.name, low=value, include_low=False)

    def __ge__(self, value) -> Predicate:
        return AttributeRange(self.name, low=value)

    # -- named forms -----------------------------------------------------
    def between(
        self,
        low: Optional[AttributeValue] = None,
        high: Optional[AttributeValue] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Predicate:
        """``low <= attr <= high`` (either bound may be None)."""
        return AttributeRange(self.name, low, high, include_low, include_high)

    def contains(self, needle: str) -> Predicate:
        """Case-insensitive substring match on string attributes."""
        return AttributeContains(self.name, needle)

    def one_of(self, *values: AttributeValue) -> Predicate:
        """The attribute equals one of ``values``."""
        if not values:
            raise QueryError("one_of() needs at least one value")
        return AttributeIn(self.name, tuple(values))

    def exists(self) -> Predicate:
        """The record carries this attribute at all."""
        return AttributeExists(self.name)

    def near(self, centre: GeoPoint, radius_km: float) -> Predicate:
        """The attribute is a GeoPoint within ``radius_km`` of ``centre``."""
        return NearLocation(self.name, centre, radius_km)


class Q:
    """Entry points of the query DSL (never instantiated)."""

    def __init__(self) -> None:
        raise TypeError("Q is a namespace; use its classmethods")

    # -- attribute predicates -------------------------------------------
    @staticmethod
    def attr(name: str) -> Attr:
        """An attribute, ready for comparison: ``Q.attr('city') == 'london'``."""
        return Attr(name)

    # -- temporal / spatial fast paths ----------------------------------
    @staticmethod
    def between(start, end) -> Predicate:
        """Tuple sets whose time window overlaps ``[start, end]``.

        Accepts :class:`~repro.core.attributes.Timestamp` bounds (or
        plain seconds, which are coerced).  Served by the store's
        temporal index through the planner -- this is the indexed fast
        path for the paper's time-window query class.
        """
        from repro.core.attributes import Timestamp

        if not isinstance(start, Timestamp):
            start = Timestamp(float(start))
        if not isinstance(end, Timestamp):
            end = Timestamp(float(end))
        return TimeWindowOverlaps(start, end)

    @staticmethod
    def near(centre: GeoPoint, radius_km: float, attribute: str = "location") -> Predicate:
        """Tuple sets whose ``attribute`` lies within ``radius_km`` of ``centre``.

        With the default attribute (``location``, the one ingest feeds
        the spatial index) the planner serves this from the spatial grid
        index -- the indexed fast path for geographic-radius queries.
        """
        return NearLocation(attribute, centre, radius_km)

    # -- lineage predicates ---------------------------------------------
    @staticmethod
    def derived_from(ancestor, include_self: bool = False) -> Predicate:
        """Transitively derived from ``ancestor`` (the forward taint query)."""
        return DerivedFrom(coerce_pname(ancestor), include_self=include_self)

    @staticmethod
    def ancestor_of(descendant, include_self: bool = False) -> Predicate:
        """A transitive ancestor of ``descendant`` (the backward query)."""
        return AncestorOf(coerce_pname(descendant), include_self=include_self)

    # -- agents, annotations, rawness -----------------------------------
    @staticmethod
    def agent(name: str, kind: Optional[str] = None, version: Optional[str] = None) -> Predicate:
        """Some agent of the record matches by name (and kind/version)."""
        return AgentIs(name, kind=kind, version=version)

    @staticmethod
    def annotated(key: str, value: Optional[AttributeValue] = None) -> Predicate:
        """Some annotation has ``key`` (and ``value``, when given)."""
        return AnnotationMatches(key, value)

    @staticmethod
    def raw(raw: bool = True) -> Predicate:
        """A raw capture (no ancestors); ``Q.raw(False)`` for derived data."""
        return IsRaw(raw)

    # -- combinators -----------------------------------------------------
    @staticmethod
    def all(*parts: Predicate) -> Predicate:
        """Conjunction of several predicates."""
        return And(tuple(parts))

    @staticmethod
    def any(*parts: Predicate) -> Predicate:
        """Disjunction of several predicates."""
        return Or(tuple(parts))

    @staticmethod
    def none(part: Predicate) -> Predicate:
        """Negation (same as ``~part``)."""
        return Not(part)

    @staticmethod
    def everything() -> Predicate:
        """The trivial predicate matching every record."""
        return TRUE

    # -- execution options ----------------------------------------------
    @staticmethod
    def find(predicate: Optional[Predicate] = None) -> "QueryBuilder":
        """Start a builder for a full :class:`~repro.core.query.Query`."""
        return QueryBuilder(predicate if predicate is not None else TRUE)


class QueryBuilder:
    """Fluent construction of a :class:`~repro.core.query.Query` descriptor."""

    def __init__(self, predicate: Predicate) -> None:
        if not isinstance(predicate, Predicate):
            raise QueryError(f"QueryBuilder needs a Predicate, got {predicate!r}")
        self._predicate = predicate
        self._limit: Optional[int] = None
        self._order_by: Optional[str] = None
        self._include_removed = True

    def where(self, predicate: Predicate) -> "QueryBuilder":
        """AND another predicate onto the builder."""
        self._predicate = self._predicate & predicate
        return self

    def limit(self, count: int) -> "QueryBuilder":
        """Return at most ``count`` records."""
        self._limit = count
        return self

    def order_by(self, attribute: str) -> "QueryBuilder":
        """Sort results by an attribute (records lacking it sort last)."""
        self._order_by = attribute
        return self

    def exclude_removed(self) -> "QueryBuilder":
        """Skip data sets whose readings were removed (P4 keeps their records)."""
        self._include_removed = False
        return self

    def include_removed(self) -> "QueryBuilder":
        """Include removed data sets (the default)."""
        self._include_removed = True
        return self

    def build(self) -> Query:
        """The finished query descriptor."""
        return Query(
            predicate=self._predicate,
            limit=self._limit,
            include_removed=self._include_removed,
            order_by=self._order_by,
        )


def as_query(queryish) -> Query:
    """Lower anything query-shaped to a :class:`~repro.core.query.Query`.

    Accepts ``None`` (match everything), a :class:`Predicate` (from the
    core algebra or the ``Q`` DSL), a :class:`QueryBuilder`, or a
    finished :class:`Query`.
    """
    if queryish is None:
        return Query()
    if isinstance(queryish, Query):
        return queryish
    if isinstance(queryish, QueryBuilder):
        return queryish.build()
    if isinstance(queryish, Predicate):
        return Query(predicate=queryish)
    if isinstance(queryish, Attr):
        raise QueryError(
            f"{queryish!r} is an attribute, not a predicate; compare it to a value first"
        )
    raise QueryError(f"cannot interpret {queryish!r} as a query")
