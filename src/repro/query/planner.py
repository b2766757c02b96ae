"""The cost-based query planner.

Given a :class:`~repro.core.query.Query`, the planner:

1. normalizes the predicate (:mod:`repro.query.normalize`),
2. extracts every *sargable* conjunct -- one the store's indexes can
   answer -- and builds a candidate access path for each
   (:mod:`repro.query.paths`),
3. estimates each candidate's cardinality -- once -- from the store's
   record count, index metadata and closure strategy,
4. picks the cheapest path, upgrading to an index intersection when a
   second conjunct is selective enough to pay for its probe.

Every query is planned from its own constants: nothing is remembered
between queries, so a plan can never be one chosen for another query's
values (the paper's sliding-window workloads move their constants on
every probe).  Each option's estimate is taken once and never fetches
a record, so a fresh analysis costs about what replaying a remembered
one did.

The planner chooses *candidate generation* and, from each chosen path's
``exact`` flag, what is left for the executor to re-test on the
candidates (the *residual*); a bad estimate can cost time but never
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.query import (
    TRUE,
    AncestorOf,
    And,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    DerivedFrom,
    NearLocation,
    Or,
    Predicate,
    Query,
    TimeWindowOverlaps,
)
from repro.query.feedback import ResultKey
from repro.query.normalize import normalize, shape_key
from repro.query.paths import (
    AccessPath,
    EqualityProbe,
    ExistsProbe,
    FullScanPath,
    IndexIntersection,
    IndexUnion,
    LineageAncestorsProbe,
    LineageDescendantsProbe,
    MultiProbe,
    RangeProbe,
    SpatialRadiusProbe,
    TemporalOverlapProbe,
)

__all__ = ["Plan", "QueryPlanner"]

#: A second index probe joins an intersection only when it narrows to
#: at most this fraction of the store.
_INTERSECTION_SELECTIVITY = 0.5


@dataclass
class Plan:
    """The outcome of planning one query."""

    query: Query
    #: normalized predicate (the full, user-visible query condition)
    predicate: Predicate
    #: chosen candidate generator
    path: AccessPath
    #: value-free structure of the predicate (``Explain.shape``)
    shape: str
    #: estimated candidate rows at plan time
    estimated_rows: int
    #: what the executor actually evaluates on candidates: the predicate
    #: minus conjuncts the chosen path answers *exactly* (see
    #: ``AccessPath.exact``); ``TRUE`` when nothing is left, and then an
    #: index-only path's hits are the answer.  Soundness: an exact
    #: conjunct holds for every candidate by construction.  Deliberately
    #: non-defaulted: a forgotten residual must be a TypeError, not a
    #: plan that filters nothing.
    residual: Predicate


class QueryPlanner:
    """Plans queries for one :class:`~repro.core.pass_store.PassStore`."""

    def __init__(self, store) -> None:
        self._store = store

    def plan(
        self, query: Query, force_full_scan: bool = False, key: Optional[ResultKey] = None
    ) -> Plan:
        """Choose an access path for ``query`` from its own constants.

        ``key`` is the query's result-cache identity when the executor
        derived one: the normalized predicate and its shape are taken
        from it instead of being worked out a second time.
        """
        predicate = normalize(query.predicate) if key is None else key.predicate
        shape = shape_key(predicate) if key is None else key.shape
        if force_full_scan:
            return Plan(query, predicate, FullScanPath(), shape, self._store.record_count, predicate)
        path, estimated_rows, residual = self._choose_path(predicate)
        return Plan(query, predicate, path, shape, estimated_rows, residual)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _conjuncts_of(predicate: Predicate) -> Tuple[Predicate, ...]:
        if isinstance(predicate, And):
            return predicate.parts
        return (predicate,)

    def _choose_path(self, predicate: Predicate) -> Tuple[AccessPath, int, Predicate]:
        """Rank every sargable conjunct by its estimate, taken once.

        Returns ``(path, estimated_rows, residual)`` where ``residual`` is
        the predicate the executor must still evaluate on candidates
        (exact conjuncts covered by the path are removed; see
        :class:`Plan`).
        """
        store = self._store
        record_count = store.record_count
        options: List[Tuple[int, AccessPath, Predicate]] = []
        for conjunct in self._conjuncts_of(predicate):
            path = self._sargable(conjunct)
            if path is not None:
                options.append((path.estimate(store), path, conjunct))
        if not options:
            return FullScanPath(), record_count, predicate

        # Stable on ties: equal estimates keep the conjuncts' order.
        ranked = sorted(options, key=lambda option: option[0])
        best = ranked[0]
        if best[0] >= record_count and not best[1].exact:
            # The "index" would touch everything; scanning is cheaper
            # than probing plus fetching every record by name.  Exact
            # probes are exempt: their conjunct is not re-tested (an
            # everything-sized closure enumeration beats re-testing
            # reachability once per record) and an index-only answer
            # fetches nothing at all -- so before giving up, fall back
            # to the cheapest exact option if there is one.
            exact_ranked = [option for option in ranked if option[1].exact]
            if not exact_ranked:
                return FullScanPath(), record_count, predicate
            best = exact_ranked[0]
        best_rows, best_path, _ = best
        second = next((option for option in ranked if option is not best), None)
        if second is not None and second[0] <= record_count * _INTERSECTION_SELECTIVITY:
            # Built best-first: the intersection probes in this order.
            intersection = IndexIntersection([best_path, second[1]])
            return intersection, min(best_rows, second[0]), self._residual_of(predicate, [best, second])
        return best_path, best_rows, self._residual_of(predicate, [best])

    def _residual_of(
        self, predicate: Predicate, chosen: List[Tuple[int, AccessPath, Predicate]]
    ) -> Predicate:
        """The predicate minus conjuncts the chosen path answers exactly.

        Dropping is only sound for *exact* paths inside a conjunction:
        every candidate the path (or an intersection containing it)
        yields already satisfies the conjunct.  Inexact paths (a probe on
        an ``annotation:`` name) keep their conjunct in the residual.
        """
        covered = [conjunct for _, path, conjunct in chosen if path.exact]
        if not covered:
            return predicate
        conjuncts = self._conjuncts_of(predicate)
        if len(covered) == len(conjuncts):
            # (the chosen conjuncts are distinct members of the conjunction)
            return TRUE
        remaining = [c for c in conjuncts if c not in covered]
        if len(remaining) == 1:
            return remaining[0]
        return And(tuple(remaining))

    def _sargable(self, conjunct: Predicate) -> Optional[AccessPath]:
        """An index path answering ``conjunct`` completely, or None."""
        store = self._store
        if isinstance(conjunct, AttributeEquals) and store.attribute_index.covers(conjunct.name):
            return EqualityProbe(conjunct.name, conjunct.value)
        if isinstance(conjunct, AttributeIn) and store.attribute_index.covers(conjunct.name):
            return MultiProbe(conjunct.name, conjunct.values)
        if isinstance(conjunct, AttributeRange) and store.attribute_index.covers(conjunct.name):
            return RangeProbe(
                conjunct.name,
                conjunct.low,
                conjunct.high,
                conjunct.include_low,
                conjunct.include_high,
            )
        if isinstance(conjunct, AttributeExists) and store.attribute_index.covers(conjunct.name):
            return ExistsProbe(conjunct.name)
        if isinstance(conjunct, TimeWindowOverlaps):
            # The temporal index is keyed on exactly these two attributes;
            # windows over any other pair fall back to a scan.
            if conjunct.start_attr == "window_start" and conjunct.end_attr == "window_end":
                return TemporalOverlapProbe(conjunct.start, conjunct.end)
            return None
        if isinstance(conjunct, NearLocation):
            # The spatial index tracks the 'location' attribute (what
            # ingest indexes); radii over other geo attributes scan.  A
            # degenerate negative radius matches nothing -- scan (and
            # find nothing) rather than let the index probe raise.
            if conjunct.name == "location" and conjunct.radius_km >= 0:
                return SpatialRadiusProbe(conjunct.centre, conjunct.radius_km)
            return None
        if isinstance(conjunct, DerivedFrom):
            # Recursive queries are the paper's signature workload; the
            # closure engine enumerates the taint set output-sensitively
            # instead of re-testing reachability per stored record.
            return LineageDescendantsProbe(conjunct.ancestor, conjunct.include_self)
        if isinstance(conjunct, AncestorOf):
            return LineageAncestorsProbe(conjunct.descendant, conjunct.include_self)
        if isinstance(conjunct, Or):
            branches = [self._sargable(part) for part in conjunct.parts]
            if all(branch is not None for branch in branches):
                return IndexUnion([branch for branch in branches if branch is not None])
            return None
        return None
