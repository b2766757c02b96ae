"""The cost-based query planner.

Given a :class:`~repro.core.query.Query`, the planner:

1. normalizes the predicate (:mod:`repro.query.normalize`),
2. extracts every *sargable* conjunct -- one the store's indexes can
   answer -- and builds a candidate access path for each
   (:mod:`repro.query.paths`),
3. estimates each candidate's cardinality from the store's
   :class:`~repro.query.statistics.Statistics` and index metadata,
4. picks the cheapest path, upgrading to an index intersection when a
   second conjunct is selective enough to pay for its probe,
5. caches the analysis keyed by the predicate's *shape* (structure and
   attribute names, constants stripped), so the paper's sliding-window
   workloads -- same query, moving constants -- skip straight to path
   construction.

The planner chooses *candidate generation* and, from each chosen path's
``exact`` flag, what is left for the executor to re-test on the
candidates (the *residual*); a bad estimate can cost time but never
correctness.
"""

from __future__ import annotations

from collections import OrderedDict
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

#: Re-analyse a cached shape once the store has grown/shrunk this much.
_CACHE_STALENESS_FACTOR = 4.0
#: LRU bound on cached shapes (long-lived stores see unbounded shape
#: variety, e.g. AttributeIn arities; the cache must not grow with them).
_CACHE_MAX_SHAPES = 512
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
    #: value-free cache key of the predicate
    shape: str
    #: True when the shape's analysis came from the plan cache
    cache_hit: bool
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
    #: why the adaptive engine re-ranked this shape (None = nothing
    #: adapted); carried onto the execution's Explain verbatim
    adapted: Optional[str] = None


@dataclass
class _ShapeAnalysis:
    """What the cache remembers about one predicate shape.

    ``selection`` records *which strategy won*, by the shape keys of the
    chosen conjuncts -- ``("full",)``, ``("single", conjunct_shape)`` or
    ``("intersect", shape_a, shape_b)``.  Constants are rebound from the
    incoming predicate on every hit, so sliding-window workloads reuse
    the analysis without re-ranking every option.  Rebinding by shape is
    always *sound*: for a conjunction, any sargable conjunct (or
    intersection of conjuncts) is a complete candidate generator.
    """

    #: record count when the analysis was made (staleness guard)
    record_count: int
    selection: Tuple[str, ...]
    hits: int = 0


class QueryPlanner:
    """Plans queries for one :class:`~repro.core.pass_store.PassStore`."""

    def __init__(self, store) -> None:
        self._store = store
        self._cache: "OrderedDict[str, _ShapeAnalysis]" = OrderedDict()
        # Cumulative counters: per-entry hits die with their entry, so
        # the snapshot must not be a sum over live entries (LRU eviction
        # would silently deflate it).
        self._hits = 0
        self._evictions = 0
        self._drift_invalidations = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self, query: Query, force_full_scan: bool = False, key: Optional[ResultKey] = None
    ) -> Plan:
        """Choose an access path for ``query``.

        ``key`` is the query's result-cache identity when the executor
        derived one: the normalized predicate and its shape are taken
        from it instead of being worked out a second time.
        """
        predicate = normalize(query.predicate) if key is None else key.predicate
        shape = shape_key(predicate) if key is None else key.shape
        if force_full_scan:
            path: AccessPath = FullScanPath()
            return Plan(
                query, predicate, path, shape, False, path.estimate(self._store), predicate
            )

        cached = self._cache.get(shape)
        adapted: Optional[str] = None
        if cached is not None:
            # The feedback loop may have marked this shape: its recent
            # executions misestimated badly enough that the cached
            # selection is suspect.  Evict and re-rank from scratch.
            feedback = getattr(self._store, "feedback", None)
            drift_reason = feedback.should_replan(shape) if feedback is not None else None
            if drift_reason is not None:
                del self._cache[shape]
                self._drift_invalidations += 1
                adapted = drift_reason
                cached = None
        if cached is not None and not self._stale(cached):
            rebuilt = self._rebuild(predicate, cached.selection)
            if rebuilt is not None:
                path, residual = rebuilt
                cached.hits += 1
                self._hits += 1
                self._cache.move_to_end(shape)
                return Plan(
                    query, predicate, path, shape, True, path.estimate(self._store), residual
                )

        path, selection, residual = self._choose_path(predicate)
        self._cache[shape] = _ShapeAnalysis(
            self._store.statistics.record_count, selection
        )
        self._cache.move_to_end(shape)
        while len(self._cache) > _CACHE_MAX_SHAPES:
            self._cache.popitem(last=False)
            self._evictions += 1
        return Plan(
            query,
            predicate,
            path,
            shape,
            False,
            path.estimate(self._store),
            residual,
            adapted=adapted,
        )

    def cache_snapshot(self) -> dict:
        """Plan-cache facts for ``client.stats()`` and tests.

        ``hits`` and ``evictions`` are cumulative over the planner's
        lifetime -- an LRU eviction (or a drift invalidation) must not
        erase the history of the entry it dropped.
        """
        return {
            "entries": len(self._cache),
            "hits": self._hits,
            "evictions": self._evictions,
            "drift_invalidations": self._drift_invalidations,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stale(self, cached: _ShapeAnalysis) -> bool:
        now = self._store.statistics.record_count
        then = max(1, cached.record_count)
        return now > then * _CACHE_STALENESS_FACTOR or now * _CACHE_STALENESS_FACTOR < then

    @staticmethod
    def _conjuncts_of(predicate: Predicate) -> Tuple[Predicate, ...]:
        if isinstance(predicate, And):
            return predicate.parts
        return (predicate,)

    def _choose_path(
        self, predicate: Predicate
    ) -> Tuple[AccessPath, Tuple[str, ...], Predicate]:
        """Full analysis: rank every sargable conjunct.

        Returns ``(path, selection, residual)`` where ``residual`` is the
        predicate the executor must still evaluate on candidates (exact
        conjuncts covered by the path are removed; see :class:`Plan`).
        """
        store = self._store
        record_count = store.statistics.record_count
        options: List[Tuple[AccessPath, str, Predicate]] = []
        for conjunct in self._conjuncts_of(predicate):
            path = self._sargable(conjunct)
            if path is not None:
                options.append((path, shape_key(conjunct), conjunct))
        if not options:
            return FullScanPath(), ("full",), predicate

        ranked = sorted(options, key=lambda item: item[0].estimate(store))
        best, best_shape, best_conjunct = ranked[0]
        if best.estimate(store) >= record_count and not best.exact:
            # The "index" would touch everything; scanning is cheaper
            # than probing plus fetching every record by name.  Exact
            # probes are exempt: their conjunct is not re-tested (an
            # everything-sized closure enumeration beats re-testing
            # reachability once per record) and an index-only answer
            # fetches nothing at all -- so before giving up, fall back
            # to the cheapest exact option if there is one.
            exact_ranked = [option for option in ranked if option[0].exact]
            if not exact_ranked:
                return FullScanPath(), ("full",), predicate
            best, best_shape, best_conjunct = exact_ranked[0]
        if (
            len(ranked) > 1
            and ranked[1][0].estimate(store) <= record_count * _INTERSECTION_SELECTIVITY
        ):
            second, second_shape, second_conjunct = ranked[1]
            chosen = [(best, best_conjunct), (second, second_conjunct)]
            return (
                IndexIntersection([best, second]),
                ("intersect", best_shape, second_shape),
                self._residual_of(predicate, chosen),
            )
        return best, ("single", best_shape), self._residual_of(predicate, [(best, best_conjunct)])

    def _residual_of(
        self, predicate: Predicate, chosen: List[Tuple[AccessPath, Predicate]]
    ) -> Predicate:
        """The predicate minus conjuncts the chosen path answers exactly.

        Dropping is only sound for *exact* paths inside a conjunction:
        every candidate the path (or an intersection containing it)
        yields already satisfies the conjunct.  Inexact paths (a probe on
        an ``annotation:`` name) keep their conjunct in the residual.
        """
        covered = [conjunct for path, conjunct in chosen if path.exact]
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

    def _rebuild(
        self, predicate: Predicate, selection: Tuple[str, ...]
    ) -> Optional[Tuple[AccessPath, Predicate]]:
        """Re-instantiate a cached strategy with the new predicate's constants.

        Returns ``None`` when the selection no longer applies (a conjunct
        shape disappeared) -- the caller then falls back to full analysis.
        """
        if selection[0] == "full":
            return FullScanPath(), predicate
        wanted = list(selection[1:])
        chosen: List[Tuple[AccessPath, Predicate]] = []
        for conjunct in self._conjuncts_of(predicate):
            if not wanted:
                break
            conjunct_shape = shape_key(conjunct)
            if conjunct_shape in wanted:
                path = self._sargable(conjunct)
                if path is None:
                    return None
                chosen.append((path, conjunct))
                wanted.remove(conjunct_shape)
        if wanted:
            return None
        residual = self._residual_of(predicate, chosen)
        if selection[0] == "intersect":
            return IndexIntersection([path for path, _ in chosen]), residual
        return chosen[0][0], residual

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
