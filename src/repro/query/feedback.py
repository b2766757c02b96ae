"""What the store learns from the queries and ingests it serves.

One :class:`FeedbackCollector` rides on each
:class:`~repro.core.pass_store.PassStore` and drives one mechanism,
**hot-key result caching with precise ingest invalidation**: exact
repeats (same shape *and* constants) are counted; once a key is hot
its result -- the matching names, no records -- is cached, bounded
LRU, and invalidated precisely by the
stream engine's anchor index (:class:`~repro.stream.dispatch.DispatchIndex`)
from the post-commit ingest hook -- only an ingest that can match the
cached predicate evicts it.  Lineage queries are never cached: an
out-of-order ingest can make *old* records start matching, which no
anchor on the new record would catch.

Plans are not remembered at all: the planner prices every query from
its own constants (:mod:`repro.query.planner`).  Everything here is
O(1) per query and per ingest (amortized), and the whole collector
surfaces as the frozen ``stats()["planner"]["feedback"]`` block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

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
    Every attribute name and encoded value is quoted as a string
    literal, so separators inside them can never make two questions
    read alike.
    """
    try:
        if predicate is TRUE:
            return "true"
        if isinstance(predicate, (And, Or)):
            parts = [_constants_token(p) for p in predicate.parts]
            if any(part is None for part in parts):
                return None
            word = "and" if isinstance(predicate, And) else "or"
            return f"{word}(" + ",".join(sorted(parts)) + ")"  # type: ignore[arg-type]
        if isinstance(predicate, AttributeEquals):
            return f"eq[{predicate.name!r}={canonical_encode(predicate.value)!r}]"
        if isinstance(predicate, AttributeIn):
            values = ",".join(sorted(repr(canonical_encode(v)) for v in predicate.values))
            return f"in[{predicate.name!r}:{values}]"
        if isinstance(predicate, AttributeRange):
            low = "" if predicate.low is None else repr(canonical_encode(predicate.low))
            high = "" if predicate.high is None else repr(canonical_encode(predicate.high))
            return (
                f"range[{predicate.name!r}:{low}:{int(predicate.include_low)}"
                f":{high}:{int(predicate.include_high)}]"
            )
        if isinstance(predicate, AttributeExists):
            return f"exists[{predicate.name!r}]"
        if isinstance(predicate, AttributeContains):
            return f"contains[{predicate.name!r}={predicate.needle!r}]"
        if isinstance(predicate, NearLocation):
            centre = predicate.centre
            return (
                f"near[{predicate.name!r}:{centre.latitude!r}:{centre.longitude!r}"
                f":{predicate.radius_km!r}]"
            )
        if isinstance(predicate, TimeWindowOverlaps):
            return (
                f"window[{predicate.start_attr!r}:{predicate.end_attr!r}"
                f":{predicate.start.seconds!r}:{predicate.end.seconds!r}]"
            )
    except (ConfigurationError, AttributeError):
        return None
    # Negations, raw/agent/annotation predicates, lineage probes and
    # unknown extensions are not worth (or not sound to) cache.
    return None


class FeedbackCollector:
    """Per-store hot-key result cache."""

    def __init__(self) -> None:
        # Deferred: repro.stream's package __init__ reaches repro.api,
        # which is mid-import while repro.core.pass_store loads.
        from repro.stream.dispatch import DispatchIndex

        self._key_counts: "OrderedDict[str, int]" = OrderedDict()
        self._results: "OrderedDict[str, Tuple[str, ...]]" = OrderedDict()
        self._invalidation = DispatchIndex()
        self._result_hits = 0
        self._result_misses = 0
        self._result_invalidations = 0
        self._result_evictions = 0

    # ------------------------------------------------------------------
    # Hot-key result cache
    # ------------------------------------------------------------------
    def result_key(self, query: Query) -> Optional[ResultKey]:
        """The query's cache identity, or ``None`` when it must not cache.

        Lineage queries are excluded by construction: a late-arriving
        intermediate record can make *old* records start matching, and
        no anchor on the new record would invalidate the entry.
        """
        if query.requires_lineage:
            return None
        predicate = normalize(query.predicate)
        constants = _constants_token(predicate)
        if constants is None:
            return None
        token = (
            f"{constants}|order={query.order_by!r}|limit={query.limit}"
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
        if key.token in self._results:
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
        """Precise invalidation for one fresh record."""
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
            "hot_keys": self.hot_keys(),
            "result_cache": {
                "entries": len(self._results),
                "hits": self._result_hits,
                "misses": self._result_misses,
                "invalidations": self._result_invalidations,
                "evictions": self._result_evictions,
            },
        }
