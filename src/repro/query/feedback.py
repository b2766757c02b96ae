"""The estimated-vs-actual feedback loop (adaptive query engine).

Every planned execution already records what the planner expected
(``estimated_rows``) and what actually happened (``actual_rows``) --
this module is the consumer that closes the loop.  One
:class:`FeedbackCollector` rides on each
:class:`~repro.core.pass_store.PassStore` and drives four mechanisms:

* **Drift-based plan-cache invalidation.**  The planner's staleness
  guard only watches record-count growth, so a cached selection whose
  observed selectivity drifts on a stable store would keep its stale
  plan forever.  The collector keeps a sliding window of misestimate
  flags per plan shape; when enough recent runs misestimated by
  ``>= _DRIFT_RATIO``, the shape is marked and the planner evicts and
  re-ranks it on the next hit (the fresh plan reports ``adapted``).
* **Statistics refresh scheduling.**  Attribute statistics and the
  :class:`~repro.lineage.stats.GraphStatistics` depth histogram are
  maintained incrementally and never revisited; accumulated drift (on
  a store that has ingested since the last rebuild -- on an unchanged
  one a rebuild reproduces the statistics it replaces) or ingest volume
  schedules a full rebuild (:meth:`PassStore.refresh_statistics`),
  fixing e.g. depths understated by out-of-order ingest.
* **Adaptive closure strategy switching.**  The DAG-shape summary
  (node count, max depth) is checked every ``_CLOSURE_CHECK_INTERVAL``
  fresh ingests; when the graph outgrows the labelled strategy's sweet
  spot the store switches ``labelled -> interval`` through the same
  ``rebuild_closure_index`` plumbing the daemon's async job uses (and
  back, with hysteresis, should the graph be small and shallow).
* **Hot-key result caching with precise ingest invalidation.**  Exact
  repeats (same shape *and* constants) are counted; once a key is hot
  its result -- the matching names, no records -- is cached, bounded
  LRU, and invalidated precisely by the
  stream engine's anchor index (:class:`~repro.stream.dispatch.DispatchIndex`)
  from the post-commit ingest hook -- only an ingest that can match the
  cached predicate evicts it.  Lineage queries are never cached: an
  out-of-order ingest can make *old* records start matching, which no
  anchor on the new record would catch.

Everything is O(1) per query and per ingest (amortized), and the whole
loop surfaces as the frozen ``stats()["planner"]["feedback"]`` block.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.attributes import canonical_encode
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import (
    TRUE,
    And,
    AttributeContains,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    NearLocation,
    Or,
    Predicate,
    Query,
    TimeWindowOverlaps,
)
from repro.errors import ConfigurationError
from repro.query.normalize import normalize, shape_key

__all__ = ["FeedbackCollector", "ResultKey"]

#: A run misestimates when (estimated+1)/(actual+1) falls outside
#: [1/ratio, ratio].
_DRIFT_RATIO = 4.0
#: Sliding window of misestimate flags kept per plan shape.
_DRIFT_WINDOW = 8
#: Don't judge a shape on fewer runs than this.
_DRIFT_MIN_SAMPLES = 4
#: Fraction of the window that must misestimate to declare drift.
_DRIFT_FRACTION = 0.5
#: After a drift invalidation, leave the (re-ranked) shape alone for
#: this many observations -- bounds replan churn when the misestimate
#: is intrinsic (a selective residual no access path can see).
_DRIFT_COOLDOWN = 64
#: Shapes tracked for drift (LRU-bounded like the plan cache).
_MAX_TRACKED_SHAPES = 512

#: Refresh statistics after this many drift events (once the store has
#: ingested anything the rebuild could see) ...
_REFRESH_DRIFT_EVENTS = 4
#: ... or when the store grew by this factor since the last refresh
#: (against at least _REFRESH_MIN_BASE records, so small stores don't
#: churn).
_REFRESH_INGEST_FACTOR = 2.0
_REFRESH_MIN_BASE = 256

#: Check the DAG shape for a closure-strategy switch every N fresh ingests.
_CLOSURE_CHECK_INTERVAL = 1024
#: labelled -> interval once the graph is this big or deep ...
_CLOSURE_NODES_INTERVAL = 8192
_CLOSURE_DEPTH_INTERVAL = 96
#: ... and back only well below (hysteresis; disjoint from the up
#: thresholds so the strategies can never flap).
_CLOSURE_NODES_LABELLED = 2048
_CLOSURE_DEPTH_LABELLED = 24

#: Result-cache bounds: entries, rows per entry, and how many repeats
#: make a key "hot" enough to admit.
_RESULT_CACHE_MAX = 64
_RESULT_CACHE_MAX_ROWS = 1024
_HOT_KEY_MIN_HITS = 3
#: Only executions that scanned at least this many rows are worth
#: caching -- a small index probe re-runs faster than the bookkeeping
#: it would displace (and tiny workloads keep their honest scan costs).
_RESULT_CACHE_MIN_SCANNED = 64
#: Distinct keys whose repeat counts are tracked (LRU-bounded).
_MAX_TRACKED_KEYS = 512
#: Hot keys reported in the snapshot.
_SNAPSHOT_HOT_KEYS = 5


class ResultKey:
    """Identity of one cacheable query: shape + constants + options."""

    __slots__ = ("shape", "token", "predicate")

    def __init__(self, shape: str, token: str, predicate: Predicate) -> None:
        self.shape = shape
        self.token = token
        self.predicate = predicate


def _constants_token(predicate: Predicate) -> Optional[str]:
    """A canonical constants-preserving key, or ``None`` when the
    predicate holds constructs the result cache won't track.

    Mirrors :func:`~repro.query.normalize.shape_key` (commutative
    children sorted) but keeps the constants, canonically encoded --
    two queries produce the same token iff they ask the same question.
    """
    try:
        if predicate is TRUE:
            return "true"
        if isinstance(predicate, And):
            parts = [_constants_token(p) for p in predicate.parts]
            if any(part is None for part in parts):
                return None
            return "and(" + ",".join(sorted(parts)) + ")"  # type: ignore[arg-type]
        if isinstance(predicate, Or):
            parts = [_constants_token(p) for p in predicate.parts]
            if any(part is None for part in parts):
                return None
            return "or(" + ",".join(sorted(parts)) + ")"  # type: ignore[arg-type]
        if isinstance(predicate, AttributeEquals):
            return f"eq[{predicate.name}={canonical_encode(predicate.value)}]"
        if isinstance(predicate, AttributeIn):
            values = ",".join(sorted(canonical_encode(v) for v in predicate.values))
            return f"in[{predicate.name}:{values}]"
        if isinstance(predicate, AttributeRange):
            low = "" if predicate.low is None else canonical_encode(predicate.low)
            high = "" if predicate.high is None else canonical_encode(predicate.high)
            return (
                f"range[{predicate.name}:{low}:{int(predicate.include_low)}"
                f":{high}:{int(predicate.include_high)}]"
            )
        if isinstance(predicate, AttributeExists):
            return f"exists[{predicate.name}]"
        if isinstance(predicate, AttributeContains):
            return f"contains[{predicate.name}={predicate.needle}]"
        if isinstance(predicate, NearLocation):
            centre = predicate.centre
            return (
                f"near[{predicate.name}:{centre.latitude!r}:{centre.longitude!r}"
                f":{predicate.radius_km!r}]"
            )
        if isinstance(predicate, TimeWindowOverlaps):
            return (
                f"window[{predicate.start_attr}:{predicate.end_attr}"
                f":{predicate.start.seconds!r}:{predicate.end.seconds!r}]"
            )
    except (ConfigurationError, AttributeError):
        return None
    # Negations, raw/agent/annotation predicates, lineage probes and
    # unknown extensions are not worth (or not sound to) cache.
    return None


class FeedbackCollector:
    """Per-store consumer of estimated-vs-actual execution feedback."""

    def __init__(self, store) -> None:
        # Deferred: repro.stream's package __init__ reaches repro.api,
        # which is mid-import while repro.core.pass_store loads.
        from repro.stream.dispatch import DispatchIndex

        self._store = store
        #: master switch (tests compare against the static engine by
        #: flipping this off; everything becomes a no-op).
        self.enabled = True

        # -- drift detection ------------------------------------------
        self._windows: "OrderedDict[str, Deque[int]]" = OrderedDict()
        self._drift_marks: Dict[str, str] = {}
        self._cooldown: Dict[str, int] = {}
        self._queries_observed = 0
        self._misestimates = 0
        self._drift_events = 0
        self._plans_invalidated = 0

        # -- statistics refresh scheduling ----------------------------
        self._drift_since_refresh = 0
        self._ingested_since_refresh = 0
        self._records_at_refresh = 0
        self._stats_refreshes = 0

        # -- closure strategy advisor ---------------------------------
        self._ingests_since_closure_check = 0
        self._closure_switches = 0

        # -- hot-key result cache -------------------------------------
        self._key_counts: "OrderedDict[str, int]" = OrderedDict()
        self._results: "OrderedDict[str, Tuple[str, ...]]" = OrderedDict()
        self._invalidation = DispatchIndex()
        self._result_hits = 0
        self._result_misses = 0
        self._result_invalidations = 0
        self._result_evictions = 0

    # ------------------------------------------------------------------
    # Drift detection (fed by the executor, consumed by the planner)
    # ------------------------------------------------------------------
    def observe_execution(
        self, shape: str, estimated_rows: int, actual_rows: int, cache_hit: bool
    ) -> None:
        """Fold one execution's estimate error into the shape's window."""
        if not self.enabled:
            return
        self._queries_observed += 1
        ratio = (estimated_rows + 1.0) / (actual_rows + 1.0)
        misestimated = ratio >= _DRIFT_RATIO or ratio <= 1.0 / _DRIFT_RATIO
        if misestimated:
            self._misestimates += 1
        cooldown = self._cooldown.get(shape, 0)
        if cooldown:
            if cooldown <= 1:
                del self._cooldown[shape]
            else:
                self._cooldown[shape] = cooldown - 1
            return
        window = self._window(shape)
        if not cache_hit:
            # Fresh analysis: drop any stale mark and judge the new
            # selection on its own record.
            self._drift_marks.pop(shape, None)
            window.clear()
        window.append(1 if misestimated else 0)
        if not cache_hit or len(window) < _DRIFT_MIN_SAMPLES:
            return
        miscount = sum(window)
        if miscount / len(window) >= _DRIFT_FRACTION and shape not in self._drift_marks:
            self._drift_events += 1
            self._drift_since_refresh += 1
            self._drift_marks[shape] = (
                f"drift: {miscount}/{len(window)} recent runs misestimated"
                f" >={_DRIFT_RATIO:g}x; plan re-ranked"
            )
            window.clear()

    def should_replan(self, shape: str) -> Optional[str]:
        """Consume a drift mark: the planner evicts the shape and re-ranks.

        Returns the human-readable reason (the plan's ``adapted``
        annotation) or ``None``.  Consuming a mark starts the shape's
        cooldown so an intrinsic misestimate can't thrash the cache.
        """
        if not self.enabled:
            return None
        reason = self._drift_marks.pop(shape, None)
        if reason is None:
            return None
        self._plans_invalidated += 1
        self._cooldown[shape] = _DRIFT_COOLDOWN
        return reason

    def _window(self, shape: str) -> Deque[int]:
        window = self._windows.get(shape)
        if window is None:
            window = deque(maxlen=_DRIFT_WINDOW)
            self._windows[shape] = window
            while len(self._windows) > _MAX_TRACKED_SHAPES:
                evicted, _ = self._windows.popitem(last=False)
                self._drift_marks.pop(evicted, None)
                self._cooldown.pop(evicted, None)
        else:
            self._windows.move_to_end(shape)
        return window

    # ------------------------------------------------------------------
    # Statistics refresh scheduling
    # ------------------------------------------------------------------
    def refresh_due(self) -> bool:
        """True when accumulated drift or ingest volume warrants a rebuild.

        Everything the statistics are built from arrives by ingest
        (attributes are immutable, annotations re-count nothing), so
        drift on a store that has ingested nothing since the last
        rebuild waits: the rebuild would reproduce what it replaces.
        """
        if not self.enabled or not self._ingested_since_refresh:
            return False
        if self._drift_since_refresh >= _REFRESH_DRIFT_EVENTS:
            return True
        base = max(self._records_at_refresh, _REFRESH_MIN_BASE)
        return self._ingested_since_refresh >= base * _REFRESH_INGEST_FACTOR

    def note_refreshed(self) -> None:
        """Reset the refresh triggers (called by ``refresh_statistics``)."""
        self._stats_refreshes += 1
        self._drift_since_refresh = 0
        self._ingested_since_refresh = 0
        self._records_at_refresh = self._store.statistics.record_count

    # ------------------------------------------------------------------
    # Closure strategy advisor
    # ------------------------------------------------------------------
    def closure_check_due(self) -> bool:
        """Amortized: true once per ``_CLOSURE_CHECK_INTERVAL`` fresh ingests."""
        if not self.enabled:
            return False
        if self._ingests_since_closure_check < _CLOSURE_CHECK_INTERVAL:
            return False
        self._ingests_since_closure_check = 0
        return True

    def advise_closure(self, current: str) -> Optional[str]:
        """The strategy the DAG shape calls for, or ``None`` to stay put.

        Only ever advises between ``labelled`` and ``interval`` -- an
        explicitly chosen naive/memoized strategy (experiments) is left
        alone.  Thresholds are hysteretic: the up and down regions are
        disjoint, so the store can never flap between strategies.
        """
        if not self.enabled:
            return None
        graph_stats = self._store.graph_stats
        nodes = graph_stats.nodes
        depth = graph_stats.max_depth
        if current == "labelled" and (
            nodes >= _CLOSURE_NODES_INTERVAL or depth >= _CLOSURE_DEPTH_INTERVAL
        ):
            return "interval"
        if current == "interval" and (
            nodes <= _CLOSURE_NODES_LABELLED and depth <= _CLOSURE_DEPTH_LABELLED
        ):
            return "labelled"
        return None

    def note_closure_switch(self) -> None:
        self._closure_switches += 1

    # ------------------------------------------------------------------
    # Hot-key result cache
    # ------------------------------------------------------------------
    def result_key(self, query: Query) -> Optional[ResultKey]:
        """The query's cache identity, or ``None`` when it must not cache.

        Lineage queries are excluded by construction: a late-arriving
        intermediate record can make *old* records start matching, and
        no anchor on the new record would invalidate the entry.
        """
        if not self.enabled or query.requires_lineage:
            return None
        predicate = normalize(query.predicate)
        constants = _constants_token(predicate)
        if constants is None:
            return None
        token = (
            f"{constants}|order={query.order_by}|limit={query.limit}"
            f"|removed={int(query.include_removed)}"
        )
        return ResultKey(shape_key(predicate), token, predicate)

    def cached_result(self, key: ResultKey) -> Optional[Tuple[str, ...]]:
        """The cached digests for ``key``, counting the sighting either way."""
        self._note_sighting(key.token)
        entry = self._results.get(key.token)
        if entry is None:
            self._result_misses += 1
            return None
        self._results.move_to_end(key.token)
        self._result_hits += 1
        return entry

    def maybe_admit(self, key: ResultKey, digests: List[str], rows_scanned: int) -> None:
        """Cache ``digests`` once the key is hot, worthwhile, and anchorable."""
        if not self.enabled or key.token in self._results:
            return
        if len(digests) > _RESULT_CACHE_MAX_ROWS:
            return
        if rows_scanned < _RESULT_CACHE_MIN_SCANNED:
            return
        if self._key_counts.get(key.token, 0) < _HOT_KEY_MIN_HITS:
            return
        kind = self._invalidation.add(key.token, key.predicate)
        if kind == "scan":
            # Unanchorable: every ingest would invalidate it; not worth
            # caching (and `candidates` would return it for any record).
            self._invalidation.remove(key.token)
            return
        self._results[key.token] = tuple(digests)
        while len(self._results) > _RESULT_CACHE_MAX:
            evicted, _ = self._results.popitem(last=False)
            self._invalidation.remove(evicted)
            self._result_evictions += 1

    def _note_sighting(self, token: str) -> None:
        count = self._key_counts.get(token)
        if count is None:
            self._key_counts[token] = 1
            while len(self._key_counts) > _MAX_TRACKED_KEYS:
                self._key_counts.popitem(last=False)
        else:
            self._key_counts[token] = count + 1
            self._key_counts.move_to_end(token)

    def invalidate_all(self) -> None:
        """Drop every cached result (removal/annotation touched a record)."""
        for token in list(self._results):
            self._invalidation.remove(token)
        if self._results:
            self._result_invalidations += len(self._results)
            self._results.clear()

    # ------------------------------------------------------------------
    # Ingest-path maintenance (called from the store's post-commit hook)
    # ------------------------------------------------------------------
    def on_ingest(self, pname: PName, record: ProvenanceRecord) -> None:
        """Precise invalidation + scheduling counters for one fresh record."""
        if not self.enabled:
            return
        self._ingested_since_refresh += 1
        self._ingests_since_closure_check += 1
        if self._results:
            for token in self._invalidation.candidates(record):
                if self._results.pop(token, None) is not None:
                    self._invalidation.remove(token)
                    self._result_invalidations += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def hot_keys(self, top: int = _SNAPSHOT_HOT_KEYS) -> List[dict]:
        """The most-repeated query keys (deterministic order)."""
        ranked = sorted(
            self._key_counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [{"key": token, "count": count} for token, count in ranked[:top]]

    def snapshot(self) -> dict:
        """The frozen ``stats()["planner"]["feedback"]`` block."""
        return {
            "enabled": self.enabled,
            "queries_observed": self._queries_observed,
            "misestimates": self._misestimates,
            "drift_events": self._drift_events,
            "plans_invalidated": self._plans_invalidated,
            "stats_refreshes": self._stats_refreshes,
            "closure_switches": self._closure_switches,
            "hot_keys": self.hot_keys(),
            "result_cache": {
                "entries": len(self._results),
                "hits": self._result_hits,
                "misses": self._result_misses,
                "invalidations": self._result_invalidations,
                "evictions": self._result_evictions,
            },
        }
