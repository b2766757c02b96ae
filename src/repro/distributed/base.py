"""Common interface of the Section IV architecture models.

The paper compares how different storage/index architectures would serve
provenance-indexed sensor data: a centralized warehouse, distributed and
federated databases, soft-state Grid services, hierarchical namespaces,
and DHTs.  Each model in this package implements the same small
interface so the evaluation harness can drive them identically:

* :meth:`ArchitectureModel.publish` -- a sensor site announces a new
  tuple set (the readings stay wherever the model places them; what
  moves is provenance metadata and, for some models, the data itself),
* :meth:`ArchitectureModel.query` -- a consumer at some site runs an
  attribute query,
* :meth:`ArchitectureModel.ancestors` / :meth:`descendants` -- the
  recursive provenance queries,
* :meth:`ArchitectureModel.locate` -- where is the data named by a
  PName actually stored (and is the pointer still valid)?

Every operation returns an :class:`OperationResult` carrying the answer
plus the latency / message / byte cost the simulated network charged, so
the harness can score the Section IV criteria without knowing anything
about the model's internals.

Cost is measured, not declared: a model states placement, routing and
what it sends; the wrapper around each operation reads latency,
messages and bytes off the :class:`~repro.sim.trace.OpTrace` the network
facade captured.  The answer fields (``pnames``, ``rows_scanned``,
``sites_contacted``, ``notes``) stay the model's to fill.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.pass_store import PassStore
from repro.core.provenance import PName
from repro.core.query import Predicate, Query
from repro.core.tupleset import TupleSet
from repro.errors import NetworkError, UnknownEntityError
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology
from repro.query.explain import Explain
from repro.sim.trace import trace_elapsed_ms

__all__ = ["OperationResult", "ArchitectureModel", "estimate_record_bytes", "NOTIFY_BYTES"]

#: wire size of one subscription notification (pname + matched-event header)
NOTIFY_BYTES = 144
#: wire size of one pname pointer in a reply (replies carry at least one)
POINTER_BYTES = 96
#: wire size of a "where is this pname?" request
LOCATE_REQUEST_BYTES = 128
#: wire size of one frontier entry in a broadcast closure step
CLOSURE_STEP_BYTES = 160


def estimate_record_bytes(tuple_set: TupleSet) -> int:
    """Approximate wire size of a tuple set's provenance record."""
    return len(tuple_set.provenance.to_json().encode("utf-8"))


@dataclass
class OperationResult:
    """The answer to one operation plus its network cost."""

    pnames: List[PName] = field(default_factory=list)
    latency_ms: float = 0.0
    messages: int = 0
    bytes: int = 0
    #: records materialized and evaluated across all participating sites
    rows_scanned: int = 0
    #: sites that had to participate to answer
    sites_contacted: List[str] = field(default_factory=list)
    #: model-specific notes ("stale index entry", "dangling link", ...)
    notes: List[str] = field(default_factory=list)
    #: message-exchange structure of the operation, captured by the
    #: network facade for discrete-event replay (:mod:`repro.sim`)
    trace: Optional[object] = None

    def pname_set(self) -> Set[PName]:
        """The result as a set (order-insensitive comparisons in tests)."""
        return set(self.pnames)

    def add_site(self, site: str) -> None:
        """Record a participating site exactly once, in first-contact order."""
        if site not in self.sites_contacted:
            self.sites_contacted.append(site)

    def merge(self, other: "OperationResult") -> "OperationResult":
        """Fold another operation's answer and cost into this one.

        The one way to combine results of *separate* operations (the
        façade's per-site batches, looped publishes in experiments).  An
        operation invoked inside another returns zero cost -- the outer
        operation's trace already holds its hops.  Returns ``self`` for
        chaining.
        """
        self.pnames.extend(other.pnames)
        self.latency_ms += other.latency_ms
        self.messages += other.messages
        self.bytes += other.bytes
        self.rows_scanned += other.rows_scanned
        for site in other.sites_contacted:
            self.add_site(site)
        self.notes.extend(other.notes)
        return self


#: operation methods whose message exchanges are captured as OpTraces
_TRACED_OPERATIONS = ("publish", "publish_batch", "query", "ancestors", "descendants", "locate")


def _traced_operation(kind: str, method):
    """Capture a model operation's message structure and read its cost off it.

    The wrapper brackets the call with ``begin_operation``/``end_operation``
    (re-entrant, so an operation invoking another keeps one trace) and
    attaches the captured :class:`~repro.sim.trace.OpTrace` to the
    returned :class:`OperationResult`.  The trace is the one definition
    of the operation's cost: latency is its closed-form elapsed time
    (sequential steps add, fan-outs take the slowest branch, background
    hops wait for nobody), messages its hop count, bytes the sum of its
    hop sizes.  Only the outermost operation gets a trace, so a nested
    one reports zero and nothing is counted twice.
    """

    @functools.wraps(method)
    def wrapper(self, payload, origin_site, *args, **kwargs):
        self.network.begin_operation(kind, origin_site)
        try:
            result = method(self, payload, origin_site, *args, **kwargs)
        finally:
            trace = self.network.end_operation()
        if trace is not None and isinstance(result, OperationResult):
            hops = trace.hops()
            result.trace = trace
            result.latency_ms = trace_elapsed_ms(trace.steps)
            result.messages = len(hops)
            result.bytes = sum(hop.size_bytes for hop in hops)
        return result

    wrapper._sim_traced = True
    return wrapper


class ArchitectureModel(ABC):
    """Base class every architecture model extends."""

    #: short machine-readable name used in reports ("centralized", "dht", ...)
    name = "abstract"
    #: does the model support transitive-closure (lineage) queries at all?
    supports_lineage = True
    #: Section IV-B/IV-C distinction: does the model require stable hosts?
    requires_stable_hosts = True
    #: wire size of one query request in this architecture's dialect
    query_request_bytes = 256

    def __init_subclass__(cls, **kwargs) -> None:
        """Every concrete operation override is trace-captured automatically.

        Models keep writing plain ``publish``/``query``/... methods; the
        wrapping makes each an event-emitting exchange the discrete-event
        kernel can replay, without per-model boilerplate.
        """
        super().__init_subclass__(**kwargs)
        for name in _TRACED_OPERATIONS:
            method = cls.__dict__.get(name)
            if method is None or getattr(method, "_sim_traced", False):
                continue
            if getattr(method, "__isabstractmethod__", False):
                continue
            setattr(cls, name, _traced_operation(name, method))

    def __init__(self, topology: Topology, network: Optional[NetworkSimulator] = None) -> None:
        self.topology = topology
        self.network = network if network is not None else NetworkSimulator(topology)
        self.published = 0
        self.queries_run = 0
        self.notifications_sent = 0
        self.notifications_suppressed = 0  # undeliverable (e.g. partitioned subscriber)
        #: per-site Explains of the most recent query (ModelClient.explain)
        self._query_explains: List["Explain"] = []
        #: standing-subscription engines, attached by ModelClient.subscribe();
        #: a list so several clients wrapping one model all keep receiving
        self.stream_engines: List = []

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @abstractmethod
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        """Announce (and place) a freshly produced tuple set from ``origin_site``."""

    def publish_batch(self, tuple_sets: Sequence[TupleSet], origin_site: str) -> OperationResult:
        """Publish several tuple sets produced at one site as a batch.

        The default pays the full per-publish cost and merges the
        results; models with a genuinely cheaper bulk path (one round
        trip for the whole batch) override it.  The façade's
        ``publish_many`` routes per-site batches through here.
        """
        combined = OperationResult()
        for tuple_set in tuple_sets:
            combined.merge(self.publish(tuple_set, origin_site))
        return combined

    @abstractmethod
    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        """Run an attribute query issued by a consumer at ``origin_site``."""

    def ancestors(self, pname: PName, origin_site: str) -> OperationResult:
        """Transitive ancestors of ``pname`` (raises UnsupportedQueryError if unsupported)."""
        return self._lineage(pname, origin_site, up=True)

    def descendants(self, pname: PName, origin_site: str) -> OperationResult:
        """Transitive descendants of ``pname`` (the taint query)."""
        return self._lineage(pname, origin_site, up=False)

    @abstractmethod
    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        """The closure walk behind :meth:`ancestors` (``up``) and :meth:`descendants`."""

    @abstractmethod
    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        """Find the site(s) storing the data for ``pname``.

        ``sites_contacted`` of the result carries the answer; a dangling
        or stale pointer is reported through ``notes``.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _as_query(query: Query | Predicate) -> Query:
        if isinstance(query, Query):
            return query
        return Query(predicate=query)

    def _start_query(self, query: Query | Predicate) -> Query:
        """Query prologue: reset the per-site explain trace and lower the input.

        Every model's :meth:`query` calls this first so the trace always
        describes the most recent query.
        """
        self._query_explains = []
        return self._as_query(query)

    def _planned_query(self, store: PassStore, query: Query, result: OperationResult) -> List[PName]:
        """Run ``query`` on one site's store through its planner.

        Charges the rows the site actually scanned onto ``result`` and
        records the site's :class:`~repro.query.explain.Explain` for
        :meth:`query_explains` -- the one way models consult a per-site
        PASS store on the query path.
        """
        digests, explain = store.query_explain(query)
        result.rows_scanned += explain.rows_scanned
        self._query_explains.append(explain)
        return [PName(digest) for digest in digests]

    def _trace_scan(self, site: str, rows_scanned: int, matched: int, what: str) -> None:
        """Record a non-planner scan (models keeping raw record maps) in the trace."""
        self._query_explains.append(
            Explain(
                site=site,
                path=what,
                path_kind="model-scan",
                estimated_rows=rows_scanned,
                actual_rows=matched,
                rows_scanned=rows_scanned,
                used_index=False,
            )
        )

    def query_explains(self) -> List["Explain"]:
        """Per-site Explains of the most recent :meth:`query` call."""
        return list(self._query_explains)

    # ------------------------------------------------------------------
    # Message exchanges several architectures share
    # ------------------------------------------------------------------
    def _scatter_gather(
        self,
        query: Query,
        origin_site: str,
        targets: Sequence[Tuple[str, PassStore]],
        result: OperationResult,
        request_kind: str = "query",
        reply_kind: str = "query-response",
    ) -> List[PName]:
        """Ask each ``(site, store)`` in parallel: request -> planned query -> sized reply.

        Each site's round trip is one branch of the fan-out, so the
        operation waits for the slowest *round trip*.  Every site asked
        is recorded on ``result``; returns the distinct matches in
        digest order.
        """
        matches: List[PName] = []
        with self.network.parallel() as fanout:
            for site, store in targets:
                with fanout.branch():
                    self.network.send(origin_site, site, self.query_request_bytes, request_kind)
                    local = self._planned_query(store, query, result)
                    self.network.send(
                        site, origin_site, POINTER_BYTES * max(1, len(local)), reply_kind
                    )
                matches.extend(local)
                result.add_site(site)
        return sorted(set(matches), key=lambda p: p.digest)

    def _broadcast_gather(
        self,
        origin_site: str,
        sites: Sequence[str],
        request_bytes: int,
        request_kind: str,
        reply_kind: str,
        answer: Callable[[str], List[PName]],
    ) -> List[PName]:
        """Broadcast one request to ``sites``, then gather their sized replies.

        Two fan-outs back to back: the operation waits for the slowest
        request, then for the slowest reply.  Returns every site's
        ``answer(site)`` concatenated in site order.
        """
        self.network.broadcast(origin_site, sites, request_bytes, request_kind)
        gathered: List[PName] = []
        with self.network.parallel():
            for site in sites:
                local = answer(site)
                self.network.send(
                    site, origin_site, POINTER_BYTES * max(1, len(local)), reply_kind
                )
                gathered.extend(local)
        return gathered

    def _broadcast_closure(
        self,
        pname: PName,
        origin_site: str,
        up: bool,
        stores: "SiteStores",
        step_kind: str,
        reply_kind: str,
        round_compute_ms: float = 0.0,
    ) -> OperationResult:
        """Level-by-level closure for architectures with no lineage index.

        Nobody knows which site holds a record's edges, so every
        generation of the walk broadcasts the whole frontier to every
        site and gathers the neighbours each one knows about;
        ``round_compute_ms`` is per-round work at the asking site (a
        mediator re-translating the step for every dialect).
        """
        result = OperationResult()
        sites = self.topology.site_names
        found: Set[PName] = set()
        frontier: Set[PName] = {pname}
        rounds = 0

        def neighbours_at(site: str) -> List[PName]:
            graph = stores.store(site).graph
            neighbours: List[PName] = []
            for node in frontier:
                if node in graph:
                    neighbours.extend(graph.parents(node) if up else graph.children(node))
            return neighbours

        while frontier:
            rounds += 1
            neighbours = self._broadcast_gather(
                origin_site, sites, CLOSURE_STEP_BYTES * len(frontier), step_kind, reply_kind, neighbours_at
            )
            self.network.local_compute(round_compute_ms, origin_site)
            frontier = {
                neighbour
                for neighbour in neighbours
                if neighbour not in found and neighbour.digest != pname.digest
            }
            found |= frontier
        result.sites_contacted = list(sites)
        result.pnames = sorted(found, key=lambda p: p.digest)
        result.notes.append(f"closure rounds: {rounds}")
        self.queries_run += 1
        return result

    def _locate_round_trip(self, origin_site: str, holder: str, result: OperationResult) -> None:
        """Ask ``holder`` where a pname's data lives; it answers with one pointer."""
        self.network.send(origin_site, holder, LOCATE_REQUEST_BYTES, "locate")
        self.network.send(holder, origin_site, POINTER_BYTES, "locate-response")
        result.add_site(holder)

    # ------------------------------------------------------------------
    # Live subscriptions (repro.stream)
    # ------------------------------------------------------------------
    def attach_stream_engine(self, engine) -> None:
        """Attach a :class:`~repro.stream.engine.StreamEngine` (additive).

        Once attached, every publish runs the engine's incremental match
        and disseminates each delivery as one simulated ``notify``
        message, so the architectures' dissemination cost becomes part
        of the Section IV resource-consumption comparison.  Attaching is
        additive -- like the local store's ingest-hook list, a second
        client wrapping the same model never displaces the first.
        """
        if engine not in self.stream_engines:
            self.stream_engines.append(engine)

    def detach_stream_engine(self, engine) -> None:
        """Detach a previously attached engine (missing engines are ignored)."""
        try:
            self.stream_engines.remove(engine)
        except ValueError:
            pass

    def _notify_subscribers(
        self,
        tuple_set: TupleSet,
        origin_site: str,
        result: OperationResult,
        source: Optional[str] = None,
    ) -> None:
        """Match a just-published tuple set and send its ``notify`` messages.

        ``source`` is the site the architecture disseminates from -- the
        warehouse for the centralized model, the placement/home site for
        partitioned models, the producing site otherwise.  Notifications
        are push-style and asynchronous: as background hops of the
        publish's trace their messages and bytes count towards its cost
        (resource consumption), but their latency is *not* on the
        publish critical path.

        Delivery is gated on the simulated send: a subscriber behind a
        network partition genuinely misses the event (nothing lands in
        its queue/callback; the loss is counted and noted on the
        result) -- matching and window state still advance at the
        disseminating site, only the notification message is lost.
        """
        if not self.stream_engines:
            return
        sender = source if source is not None else origin_site
        for engine in list(self.stream_engines):
            matched = engine.match(tuple_set.pname, tuple_set.provenance)
            for subscription, event in matched:
                destination = subscription.site if subscription.site is not None else origin_site
                try:
                    # background=True: the hop is captured for kernel
                    # replay (it loads the disseminating site) but its
                    # latency stays off the publish critical path.
                    self.network.send(sender, destination, NOTIFY_BYTES, "notify", background=True)
                except NetworkError:
                    self.notifications_suppressed += 1
                    result.notes.append(f"notify to {destination} dropped: unreachable")
                    continue
                self.notifications_sent += 1
                engine.deliver_one(subscription, event)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def traffic_snapshot(self) -> dict:
        """The model's cumulative network traffic (incl. log-retention facts)."""
        return self.network.snapshot()

    def describe(self) -> Dict[str, object]:
        """Facts about the model used in reports."""
        return {
            "name": self.name,
            "supports_lineage": self.supports_lineage,
            "requires_stable_hosts": self.requires_stable_hosts,
            "published": self.published,
            "queries_run": self.queries_run,
            "notifications_sent": self.notifications_sent,
            "notifications_suppressed": self.notifications_suppressed,
            "sites": len(self.topology),
        }


# The base class itself is not a subclass, so its concrete defaults are
# wrapped here; overrides are wrapped by __init_subclass__.
for _name in ("publish_batch", "ancestors", "descendants"):
    setattr(ArchitectureModel, _name, _traced_operation(_name, getattr(ArchitectureModel, _name)))


class SiteStores:
    """A convenience container mapping site name -> local PassStore.

    Several models keep one store per site; this helper creates them
    up front and iterates them in site order.
    """

    def __init__(self, site_names: Sequence[str]) -> None:
        self._stores: Dict[str, PassStore] = {
            name: PassStore(site=name) for name in site_names
        }

    def store(self, site: str) -> PassStore:
        """The store at ``site`` (raises for unknown sites)."""
        try:
            return self._stores[site]
        except KeyError:
            raise UnknownEntityError(f"no store at site {site!r}") from None

    def __contains__(self, site: str) -> bool:
        return site in self._stores

    def items(self):
        """Iterate over (site, store) pairs, sorted by site name."""
        return sorted(self._stores.items())
