"""The continuous-query engine: standing predicates on the ingest path.

The pull-based query path (``repro.query``) re-pays planner and scan
cost every time a consumer polls.  For streaming sensor data -- storm
triggers, congestion monitors, medical alerts -- the paper's consumers
care about new tuple sets *the moment they land*, so the
:class:`StreamEngine` turns the flow around: consumers register standing
queries once, and every ingested record is matched **incrementally**
against them through the attribute-keyed
:class:`~repro.stream.dispatch.DispatchIndex` (O(candidate
subscriptions) per record, not O(all subscriptions)).

Three subscription kinds:

* **query** -- a predicate from the ``Q`` DSL / core algebra, lowered
  through :func:`repro.query.normalize.normalize` exactly like the pull
  planner's front door; each matching record is delivered as a
  :class:`~repro.stream.subscription.MatchEvent`,
* **window** -- the same, but matched records feed a
  :class:`~repro.stream.windows.WindowAggregator`; consumers receive one
  :class:`~repro.stream.subscription.WindowEvent` per closed window,
* **lineage** -- :meth:`StreamEngine.subscribe_descendants` watches a
  PName and fires a :class:`~repro.stream.subscription.LineageEvent`
  whenever a new (transitive) descendant is published.  When the engine
  is given a ``lineage_oracle`` (the local façade passes the store's
  ``is_ancestor`` whenever the closure strategy has
  ``fast_reachability`` -- labelled or the :mod:`repro.lineage`
  interval index), each ingested record is checked against the watched
  nodes directly -- no engine-side edge or label bookkeeping at all.
  Without an oracle (graph-walking closures, and the distributed
  models, where no single component holds the whole graph) the engine
  falls back to incremental label inheritance: each new record inherits
  the watch labels of its immediate ancestors.  Either way the trigger
  never re-walks the provenance graph per ingest.

The engine is storage-agnostic: :meth:`on_ingest` is fed by a
``PassStore`` post-commit hook locally and by the architecture models'
publish paths in the distributed simulations (which charge one simulated
``notify`` message per delivery; see
:meth:`repro.distributed.base.ArchitectureModel._notify_subscribers`).
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.api.dsl import as_query, coerce_pname
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import Query
from repro.errors import QueryError, UnsupportedQueryError
from repro.obs import trace
from repro.query.normalize import normalize
from repro.stream.dispatch import DispatchIndex
from repro.stream.subscription import (
    LineageEvent,
    MatchEvent,
    Subscription,
    WindowEvent,
)
from repro.stream.windows import WindowAggregator, WindowSpec

__all__ = ["StreamEngine", "Delivery"]

#: what ``on_ingest`` hands back: (subscription, event) per delivery --
#: the architecture models charge one ``notify`` message for each.
Delivery = Tuple[Subscription, object]

#: ceiling on the lineage edge map kept for late watches.  Eager label
#: propagation (live watches) is unaffected past the cap; only a *later*
#: ``subscribe_descendants`` loses engine-side history beyond it, and the
#: façade's ``known_descendants`` backfill covers that wherever the
#: target can answer closure queries.  The truncation is surfaced in
#: ``stats()`` -- never silent.
CHILDREN_SEEN_MAX_EDGES = 250_000


class StreamEngine:
    """Holds standing subscriptions and matches ingested records against them.

    Parameters
    ----------
    use_index:
        When False, every record is evaluated against every query
        subscription (the reference path ``tests/stream`` compares the
        dispatch index against).  Match results are identical either
        way; only the work differs.
    lineage_oracle:
        Optional ``is_ancestor(watched, candidate) -> bool`` callable.
        When given, descendant watches are answered through it (the
        shared reachability index) and the engine keeps no edge/label
        maps of its own; when absent, incremental label inheritance is
        used.  Match results are identical either way.
    """

    def __init__(
        self,
        use_index: bool = True,
        lineage_oracle: Optional[Callable[[PName, PName], bool]] = None,
    ) -> None:
        self.use_index = use_index
        self._lineage_oracle = lineage_oracle
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._subs: Dict[str, Subscription] = {}
        self._query_sub_count = 0  # query+window subs, kept O(1) for the hot path
        self._index = DispatchIndex()
        #: lineage subscriptions by id (the oracle match path iterates
        #: exactly these, never the full subscription table)
        self._lineage_subs: Dict[str, Subscription] = {}
        #: record digest -> ids of lineage subscriptions whose watched
        #: node is an ancestor of (or is) that record
        self._taint: Dict[str, set] = {}
        #: digest -> digests of children among the records seen *while a
        #: lineage watch was active*; lets a late watch label descent that
        #: arrived through intermediates published after the first watch.
        #: Not populated without lineage interest (it would duplicate the
        #: whole provenance edge set in engine memory for nothing) -- the
        #: façade's ``known_descendants`` backfill covers earlier history.
        self._children_seen: Dict[str, set] = {}
        self._children_seen_edges = 0
        self._children_seen_capped = False
        self._lineage_sub_count = 0
        # cumulative totals of unsubscribed subscriptions, so the
        # engine-level deliveries/dropped counters never run backwards
        self._retired_delivered = 0
        self._retired_dropped = 0
        # counters
        self.records_seen = 0
        self.candidates_checked = 0
        self.naive_checks = 0  # what no-index dispatch would have evaluated
        self.matches = 0
        self.window_events = 0
        self.lineage_events = 0
        self.callback_errors = 0

    @property
    def needs_lineage_backfill(self) -> bool:
        """Whether descendant watches need a closure seed at registration.

        With a lineage oracle the shared index answers descent through
        pre-existing intermediates by itself; only the label-inheritance
        fallback needs the caller to supply ``known_descendants``.
        """
        return self._lineage_oracle is None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query=None,
        *,
        callback=None,
        window: Optional[WindowSpec] = None,
        site: Optional[str] = None,
        maxsize: int = 256,
        overflow: str = "drop-oldest",
        name: Optional[str] = None,
    ) -> Subscription:
        """Register a standing query (optionally windowed); returns the subscription.

        The predicate is lowered and normalized exactly like the pull
        planner's input.  A standing query's ``limit``/``order_by`` make
        no sense on an unbounded stream and are rejected; lineage
        predicates are too (use :meth:`subscribe_descendants`), because
        matching them per record would re-run transitive closure on the
        ingest hot path.
        """
        lowered = as_query(query)
        if lowered.requires_lineage:
            raise UnsupportedQueryError(
                "standing queries cannot carry lineage predicates; "
                "use subscribe_descendants() for incremental lineage triggers"
            )
        if lowered.limit is not None or lowered.order_by is not None:
            raise QueryError(
                "limit/order_by do not apply to standing queries; "
                "they describe finite answers, a subscription is unbounded"
            )
        normalized = Query(
            predicate=normalize(lowered.predicate),
            include_removed=lowered.include_removed,
        )
        if window is not None and not isinstance(window, WindowSpec):
            raise QueryError(f"window must be a WindowSpec, got {window!r}")
        with self._lock:
            seq = next(self._ids)
            subscription = Subscription(
                subscription_id=f"sub-{seq}",
                kind="window" if window is not None else "query",
                query=normalized,
                window=WindowAggregator(window) if window is not None else None,
                site=site,
                callback=callback,
                maxsize=maxsize,
                overflow=overflow,
                name=name,
            )
            subscription.seq = seq
            self._subs[subscription.id] = subscription
            self._query_sub_count += 1
            self._index.add(subscription.id, normalized.predicate)
            return subscription

    def subscribe_descendants(
        self,
        watched,
        *,
        callback=None,
        site: Optional[str] = None,
        maxsize: int = 256,
        overflow: str = "drop-oldest",
        name: Optional[str] = None,
        known_descendants: Optional[Iterable[PName]] = None,
    ) -> Subscription:
        """Fire whenever a new (transitive) descendant of ``watched`` is published.

        Only *new* publishes fire events, but descent must be detectable
        through intermediates that already exist: the watch label is
        seeded onto every descendant this engine has already seen, plus
        any ``known_descendants`` the caller's storage layer supplies
        (the façade passes the store/model's current descendant set, so
        a watch registered late still catches grandchildren of
        pre-existing children).
        """
        pname = coerce_pname(watched)
        with self._lock:
            seq = next(self._ids)
            subscription = Subscription(
                subscription_id=f"sub-{seq}",
                kind="lineage",
                watched=pname,
                site=site,
                callback=callback,
                maxsize=maxsize,
                overflow=overflow,
                name=name,
            )
            subscription.seq = seq
            self._subs[subscription.id] = subscription
            self._lineage_subs[subscription.id] = subscription
            self._lineage_sub_count += 1
            if self._lineage_oracle is None:
                # Label-inheritance fallback: seed the watch label onto
                # everything already known to descend from the watch.
                known = list(known_descendants or ())  # may be a one-shot iterable
                self._taint.setdefault(pname.digest, set()).add(subscription.id)
                for descendant in known:
                    self._taint.setdefault(descendant.digest, set()).add(subscription.id)
                # Propagate the label through descent seen before registration.
                frontier = [pname.digest] + [descendant.digest for descendant in known]
                while frontier:
                    digest = frontier.pop()
                    for child in self._children_seen.get(digest, ()):
                        labels = self._taint.setdefault(child, set())
                        if subscription.id not in labels:
                            labels.add(subscription.id)
                            frontier.append(child)
            return subscription

    def unsubscribe(self, subscription) -> bool:
        """Deactivate a subscription (by object or id); True when it existed."""
        subscription_id = getattr(subscription, "id", subscription)
        with self._lock:
            found = self._subs.pop(subscription_id, None)
            if found is None:
                return False
            found.active = False
            self._retired_delivered += found.delivered
            self._retired_dropped += found.dropped
            if found.kind in ("query", "window"):
                self._query_sub_count -= 1
                self._index.remove(subscription_id)
            else:
                self._lineage_sub_count -= 1
                self._lineage_subs.pop(subscription_id, None)
                if self._lineage_sub_count == 0:
                    # No watchers left: drop the label and edge maps
                    # entirely (a later watch re-seeds history through
                    # the façade's known_descendants backfill).
                    self._taint.clear()
                    self._children_seen.clear()
                    self._children_seen_edges = 0
                else:
                    for labels in self._taint.values():
                        labels.discard(subscription_id)
            if found.queue is not None:
                found.queue.close()
            return True

    def subscriptions(self) -> List[Subscription]:
        """Every active subscription, in registration order."""
        with self._lock:
            return list(self._subs.values())

    # ------------------------------------------------------------------
    # The ingest path
    # ------------------------------------------------------------------
    def on_ingest(self, pname: PName, record: ProvenanceRecord) -> List[Delivery]:
        """Match one freshly committed record, deliver and return the events.

        The local ingest hook: matching and delivery in one step.  The
        architecture models call :meth:`match` + :meth:`deliver_one`
        instead, so a delivery only happens when its simulated ``notify``
        message actually got through.
        """
        with trace.span("stream.dispatch", attrs={"record": pname.short}):
            events = self.match(pname, record)
            self._deliver_all(events)
        return events

    def match(self, pname: PName, record: ProvenanceRecord) -> List[Delivery]:
        """Match one record against every subscription *without* delivering.

        Matching happens under the engine lock; delivery (see
        :meth:`deliver_one` / :meth:`on_ingest`) happens outside it, so
        a ``"block"`` queue waiting for a slow consumer never deadlocks
        new subscribers.  Window state advances here -- the aggregation
        lives where the matching runs -- even if a delivery is later
        dropped on the simulated network.
        """
        events: List[Delivery] = []
        with self._lock:
            self.records_seen += 1
            self.naive_checks += self._query_sub_count
            if self.use_index:
                candidate_ids = self._index.candidates(record)
                candidates = [self._subs[sid] for sid in candidate_ids if sid in self._subs]
                candidates.sort(key=_registration_order)
            else:
                candidates = [s for s in self._subs.values() if s.kind in ("query", "window")]
            self.candidates_checked += len(candidates)
            for subscription in candidates:
                if not subscription.query.predicate.matches(pname, record, None):
                    continue
                self.matches += 1
                if subscription.window is not None:
                    for payload in subscription.window.observe(record):
                        self._emit(events, self._window_delivery(subscription, payload))
                else:
                    self._emit(
                        events, (subscription, MatchEvent(subscription.id, pname, record))
                    )

            # Lineage triggers.  With an oracle, ask the shared
            # reachability index directly (O(watches) probes, no engine
            # state); otherwise the new record inherits its ancestors'
            # watch labels, so descent is detected in O(edges).
            labels: set = set()
            if self._lineage_sub_count and self._lineage_oracle is not None:
                # O(watches), not O(all subscriptions): content/window
                # subscriptions stay behind the dispatch index's pruning.
                for subscription in self._lineage_subs.values():
                    if self._lineage_oracle(subscription.watched, pname):
                        labels.add(subscription.id)
            elif self._lineage_sub_count:
                for ancestor in record.ancestors:
                    if self._children_seen_edges < CHILDREN_SEEN_MAX_EDGES:
                        bucket = self._children_seen.setdefault(ancestor.digest, set())
                        if pname.digest not in bucket:
                            bucket.add(pname.digest)
                            self._children_seen_edges += 1
                    else:
                        self._children_seen_capped = True
                    hit = self._taint.get(ancestor.digest)
                    if hit:
                        labels |= hit
            if labels:
                if self._lineage_oracle is None:
                    self._taint.setdefault(pname.digest, set()).update(labels)
                watchers = sorted(
                    (self._subs[sid] for sid in labels if sid in self._subs),
                    key=_registration_order,
                )
                for subscription in watchers:
                    self.lineage_events += 1
                    self._emit(
                        events,
                        (
                            subscription,
                            LineageEvent(subscription.id, subscription.watched, pname, record),
                        ),
                    )

        return events

    def deliver_one(self, subscription: Subscription, event) -> None:
        """Hand one matched event to its consumer, isolating failures.

        The producer already committed the record; a subscriber callback
        that raises must not starve the remaining subscribers or make
        the successful ingest look failed.  Failures are counted on the
        subscription (``errors``) and the engine (``callback_errors``)
        instead of propagating.
        """
        try:
            subscription.deliver(event)
        except Exception:
            subscription.errors += 1
            self.callback_errors += 1

    def _deliver_all(self, events: List[Delivery]) -> None:
        for subscription, event in events:
            self.deliver_one(subscription, event)

    def flush_windows(self) -> List[Delivery]:
        """Force-close every open window on every windowed subscription."""
        events: List[Delivery] = []
        with self._lock:
            for subscription in self._subs.values():
                if subscription.window is None:
                    continue
                for payload in subscription.window.flush():
                    self._emit(events, self._window_delivery(subscription, payload))
        self._deliver_all(events)
        return events

    @staticmethod
    def _emit(events: List[Delivery], delivery: Delivery) -> None:
        """Record one matched event: ``matched`` counts at match time, so a
        notification later lost on the simulated network still shows up as
        matched-but-not-delivered in the subscription's stats."""
        delivery[0].matched += 1
        events.append(delivery)

    def _window_delivery(self, subscription: Subscription, payload) -> Delivery:
        """Wrap one closed-window payload into a (subscription, WindowEvent)."""
        start, end, group, value, count = payload
        self.window_events += 1
        return (
            subscription,
            WindowEvent(
                subscription_id=subscription.id,
                window_start=start,
                window_end=end,
                group=group,
                aggregate=subscription.window.spec.aggregate,
                value=value,
                count=count,
            ),
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Engine counters plus dispatch-index occupancy and per-sub stats."""
        with self._lock:
            # Cumulative across unsubscribes: the counters never run
            # backwards, so dashboards can compute deltas safely.
            delivered = self._retired_delivered + sum(
                s.delivered for s in self._subs.values()
            )
            dropped = self._retired_dropped + sum(s.dropped for s in self._subs.values())
            facts = {
                "subscriptions": len(self._subs),
                "records_seen": self.records_seen,
                "candidates_checked": self.candidates_checked,
                "naive_checks": self.naive_checks,
                "matches": self.matches,
                "deliveries": delivered,
                "dropped": dropped,
                "callback_errors": self.callback_errors,
                "window_events": self.window_events,
                "lineage_events": self.lineage_events,
                "lineage_matching": (
                    "shared-index" if self._lineage_oracle is not None else "label-inheritance"
                ),
                "dispatch_index": self._index.stats(),
            }
            if self._children_seen_capped:
                facts["lineage_edges_capped"] = True  # late-watch history truncated
            return facts


def _registration_order(subscription: Subscription) -> int:
    """Deterministic delivery order: subscriptions fire as registered."""
    return subscription.seq
