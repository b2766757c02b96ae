"""The :class:`PassClient` façade: one protocol over every provenance target.

Section IV/V of the paper argues the same provenance operations --
publish, attribute query, lineage closure, locate -- should be
comparable across a purely local PASS and every distributed
architecture.  Historically this codebase exposed two disjoint APIs for
that (``PassStore.ingest``/``query``/... and
``ArchitectureModel.publish``/``query``/...); the façade collapses them:

* :class:`LocalClient` speaks the protocol against a
  :class:`~repro.core.pass_store.PassStore`,
* :class:`ModelClient` speaks it against any
  :class:`~repro.distributed.base.ArchitectureModel` over its simulated
  topology,

and both return the uniform :class:`~repro.api.results.Result`
(records + cost + pagination).  Clients are constructed from URLs via
:func:`repro.api.connect` or wrapped around existing objects with
:func:`wrap`.

``publish_many`` is the batched hot path: the local store amortises
backend writes (one SQLite transaction per batch) and the centralized
model ships the whole batch in a single simulated round trip.
"""

from __future__ import annotations

import functools
import time
import weakref
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.dsl import as_query, coerce_pname
from repro.api.results import Cost, Result
from repro.core.attributes import GeoPoint
from repro.core.pass_store import PassStore
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.tupleset import TupleSet
from repro.distributed.base import ArchitectureModel
from repro.errors import ConfigurationError, NetworkError, PassError, QueryError, UnsupportedQueryError
from repro.net.topology import Topology
from repro.obs import MetricsRegistry, trace
from repro.obs import health as obs_health
from repro.query.explain import Explain
from repro.server.ops import OBSERVED_OPS as _OBSERVED_OPS
from repro.sim.workload import SimReport, simulate_publish_workload
from repro.stream.engine import StreamEngine
from repro.stream.subscription import Subscription
from repro.stream.windows import WindowSpec

__all__ = ["PassClient", "LocalClient", "ModelClient", "wrap"]


def _paginate(pnames: Sequence, limit: Optional[int], offset: int) -> Tuple[list, int]:
    """Slice a full answer into a page; returns ``(page, total)``.

    (The answer's names are PNames, or a local store's digests, which
    its client names by the graph's PNames once the page is cut.)

    Every paged call of every client ends here (a ``pass://`` call does
    on the daemon, which answers the error typed), so this is where a
    negative ``limit`` or ``offset`` is refused: a Python slice would
    count it from the end and return a wrong page without complaint.
    """
    if offset < 0 or (limit is not None and limit < 0):
        raise QueryError(f"limit and offset must not be negative (got limit={limit}, offset={offset})")
    total = len(pnames)
    if offset:
        pnames = pnames[offset:]
    if limit is not None:
        pnames = pnames[:limit]
    return list(pnames), total


def _observe_op(op: str, fn):
    """Wrap one protocol method with tracing + registry accounting.

    Every call opens a ``client.<op>`` span (a no-op attribute check
    while tracing is off) and records one counter bump plus one latency
    histogram observation into the client's
    :class:`~repro.obs.metrics.MetricsRegistry` -- the same registry
    :meth:`PassClient.stats` serves, so per-op rates and percentiles are
    visible on every target without bespoke bookkeeping.

    Clients whose transport already spans the same boundary (the remote
    client's ``rpc.<op>``) set ``_client_op_spans = False`` to skip the
    redundant façade span -- metrics recording is unaffected.
    """
    span_name = "client." + op

    @functools.wraps(fn)
    def observed(self, *args, **kwargs):
        registry = getattr(self, "metrics", None)
        started = time.perf_counter()
        failed = False
        if self._client_op_spans:
            span = trace.span(span_name, attrs={"target": self.target})
        else:
            span = trace.noop_span()
        with span:
            try:
                return fn(self, *args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                if registry is not None:
                    registry.record_op(
                        op, (time.perf_counter() - started) * 1000.0, failed=failed
                    )

    observed._observed = True
    return observed


def _weakly(method):
    """``method``, called through a weak reference to its object.

    For what a client registers with its own registry or health checks: a
    bound method there would make client -> registry -> method -> client a
    cycle, and a closed client (with its store) would then wait for the
    cyclic collector instead of going with its last reference.
    """
    ref = weakref.WeakMethod(method)
    return lambda *args: ref()(*args)


def _ancestry_oracle(model: ArchitectureModel, origin: str):
    """``is_ancestor(watched, candidate)`` answered by ``model``'s own ``ancestors``.

    One operation per published record, however many watches ask: only
    the ancestry of the record in hand is kept, keyed by the model's
    publish count, so a set published again is asked again.  It runs inside the
    publish's trace, so its messages are that publish's cost.  A query
    the network cannot complete (a partition) fires nothing for the
    record and counts in ``notifications_suppressed``.  The model is
    held weakly: model -> engine -> oracle -> model would be a cycle.
    """
    target = weakref.ref(model)
    in_hand_key, in_hand = None, set()

    def is_ancestor(watched: PName, candidate: PName) -> bool:
        nonlocal in_hand_key, in_hand
        model = target()
        key = (model.published, candidate.digest)
        if key != in_hand_key:
            try:
                in_hand = {p.digest for p in model.ancestors(candidate, origin).pnames}
            except NetworkError:
                model.notifications_suppressed += 1
                in_hand = set()
            in_hand_key = key
        return watched.digest in in_hand

    return is_ancestor


def _lift_query_limit(queryish, limit: Optional[int]):
    """Move a Query's own ``limit`` into client-side pagination.

    ``Result.total`` promises the match count *before* pagination, so the
    target must evaluate the unlimited query (order_by still sorts before
    any slicing, preserving top-N semantics); the query's limit and the
    explicit ``limit=`` parameter combine as the stricter of the two.
    Returns ``(query, effective_limit)``.
    """
    query = as_query(queryish)
    if query.limit is None:
        return query, limit
    effective = query.limit if limit is None else min(query.limit, limit)
    return replace(query, limit=None), effective


class PassClient(ABC):
    """One API over local stores and all the architecture models.

    Every operation returns a :class:`~repro.api.results.Result`; query
    inputs may be a :class:`~repro.core.query.Predicate` (hand-built or
    from the :class:`~repro.api.dsl.Q` DSL), a
    :class:`~repro.api.dsl.QueryBuilder`, a full
    :class:`~repro.core.query.Query`, or ``None`` for "everything".
    Lineage arguments accept a ``PName`` or anything carrying one
    (a ``TupleSet``, a ``ProvenanceRecord``).
    """

    #: short machine-readable name of the connected target
    target = "abstract"

    #: the per-client metrics registry; concrete clients build one in
    #: ``__init__`` and serve :meth:`stats` from it (repro.obs)
    metrics: Optional[MetricsRegistry] = None

    #: whether the façade wrapper opens a ``client.<op>`` span; clients
    #: whose transport spans the same boundary set this False
    _client_op_spans = True

    def __init_subclass__(cls, **kwargs) -> None:
        """Observe every protocol override: span + op counter + latency.

        Wrapping happens at class-definition time, so concrete clients
        (including third-party subclasses) get uniform telemetry without
        touching their method bodies.
        """
        super().__init_subclass__(**kwargs)
        for op in _OBSERVED_OPS:
            fn = cls.__dict__.get(op)
            if fn is not None and not getattr(fn, "_observed", False):
                setattr(cls, op, _observe_op(op, fn))

    # -- the protocol ----------------------------------------------------
    @abstractmethod
    def publish(self, tuple_set: TupleSet, origin: Optional[str] = None) -> Result:
        """Store/announce one freshly produced tuple set."""

    def publish_many(self, tuple_sets: Sequence[TupleSet], origin: Optional[str] = None) -> Result:
        """Publish a batch; targets with a bulk path make this cheaper per tuple set."""
        combined = Result()
        for tuple_set in tuple_sets:
            combined.merge(self.publish(tuple_set, origin))
        return combined

    @abstractmethod
    def query(
        self,
        query=None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
        origin: Optional[str] = None,
    ) -> Result:
        """Run an attribute/lineage query; ``limit``/``offset`` paginate the answer."""

    @abstractmethod
    def ancestors(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        """Everything ``pname`` was transitively derived from.

        The answer is deterministically ordered (by PName digest) and
        paginated exactly like :meth:`query`: ``Result.total`` reports
        the full closure size, ``records`` the requested page.
        """

    @abstractmethod
    def descendants(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        """Everything transitively derived from ``pname`` (the taint set).

        Ordered and paginated like :meth:`ancestors`.
        """

    @abstractmethod
    def locate(self, pname, origin: Optional[str] = None) -> Result:
        """The site(s) holding the data for ``pname`` (in ``result.cost.sites``)."""

    @abstractmethod
    def stats(self) -> Dict[str, object]:
        """Counters and facts about the connected target."""

    @abstractmethod
    def explain(self, query=None, *, origin: Optional[str] = None) -> Explain:
        """Execute a query and report how the planner served it.

        The query genuinely runs, so the :class:`~repro.query.explain.Explain`
        carries estimated *and* actual row counts.  Distributed targets
        return an aggregate root with one child per participating site.
        """

    # -- live subscriptions (repro.stream) -------------------------------
    def subscribe(
        self,
        query=None,
        *,
        callback=None,
        window: Optional[WindowSpec] = None,
        origin: Optional[str] = None,
        maxsize: int = 256,
        overflow: str = "drop-oldest",
        name: Optional[str] = None,
    ) -> Subscription:
        """Register a standing query matched incrementally on the ingest path.

        Every tuple set published *through this client* after
        registration is matched against the (normalized) predicate; hits
        are delivered to ``callback`` or onto the subscription's bounded
        pull queue (``maxsize``/``overflow``).  ``window`` turns the
        subscription into a window aggregation
        (:class:`~repro.stream.windows.WindowSpec`).  On distributed
        targets ``origin`` names the consuming site and each delivery is
        charged as one simulated ``notify`` message to it.
        """
        engine = self._stream_engine(create=True)
        return engine.subscribe(
            query,
            callback=callback,
            window=window,
            site=self._subscriber_site(origin),
            maxsize=maxsize,
            overflow=overflow,
            name=name,
        )

    def subscribe_descendants(
        self,
        pname,
        *,
        callback=None,
        origin: Optional[str] = None,
        maxsize: int = 256,
        overflow: str = "drop-oldest",
        name: Optional[str] = None,
    ) -> Subscription:
        """Fire whenever a new (transitive) descendant of ``pname`` is published.

        Each publish is checked against the watch by the target's own
        closure: the local store's reachability index, or on an
        architecture model one ``ancestors`` operation per published
        record while a watch is live, charged to that publish's cost.
        So descent through sets published earlier, in any order, fires.
        A target that cannot answer closure queries refuses the watch
        with :class:`~repro.errors.UnsupportedQueryError`.
        """
        if not self.supports_lineage:
            raise UnsupportedQueryError(
                f"target {self.target!r} answers no closure queries, so it cannot watch descendants"
            )
        return self._stream_engine(create=True).subscribe_descendants(
            pname,
            callback=callback,
            site=self._subscriber_site(origin),
            maxsize=maxsize,
            overflow=overflow,
            name=name,
        )

    def unsubscribe(self, subscription) -> bool:
        """Cancel a subscription (by object or id); True when it existed."""
        engine = self._stream_engine(create=False)
        if engine is None:
            return False
        return engine.unsubscribe(subscription)

    def subscriptions(self) -> List[Subscription]:
        """Every active subscription registered through this client."""
        engine = self._stream_engine(create=False)
        if engine is None:
            return []
        return engine.subscriptions()

    def flush_windows(self) -> int:
        """Force-close every open window aggregation; returns events emitted.

        A consumer-side operation (end of stream / shutdown): the
        trailing partial windows are delivered like any other window
        event, but -- unlike ingest-driven emissions on distributed
        targets -- no ``notify`` traffic is charged, because nothing
        crossed the simulated network.
        """
        engine = self._stream_engine(create=False)
        if engine is None:
            return 0
        return len(engine.flush_windows())

    def _stream_engine(self, create: bool) -> Optional[StreamEngine]:
        """The target's stream engine, wired into its ingest path on first use."""
        raise NotImplementedError  # pragma: no cover - both clients implement

    def _subscriber_site(self, origin: Optional[str]) -> Optional[str]:
        """Which site a subscription's deliveries are addressed to."""
        return origin

    def _stream_stats(self) -> Dict[str, object]:
        """The ``stream`` block of :meth:`stats`.

        The shape is identical whether or not anything ever subscribed
        (a never-subscribed client reports a zeroed engine), so
        dashboards can key on the counters unconditionally.
        """
        engine = self._stream_engine(create=False)
        if engine is None:
            engine = StreamEngine()  # unused: just the zeroed stats shape
        return engine.stats()

    # -- health ----------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """This target's health report (``repro.obs.health`` shape).

        Checks are built once per client and re-evaluated on every call
        (the trace-ring check is stateful: it compares drop counters
        between probes).  Local stores add storage / closure-freshness /
        subscription-queue checks; the ``pass://`` client asks the
        daemon over the wire instead.
        """
        if self._health_check_list is None:
            self._health_check_list = self._build_health_checks()
        return obs_health.evaluate(self._health_check_list)

    #: lazily built by :meth:`health` (None until first asked)
    _health_check_list = None

    def _build_health_checks(self) -> list:
        return [obs_health.trace_ring_check()]

    # -- capabilities and lifecycle --------------------------------------
    @property
    def supports_lineage(self) -> bool:
        """Whether the target can answer transitive-closure queries at all."""
        return True

    def describe_record(self, pname) -> Optional[ProvenanceRecord]:
        """The provenance record for ``pname``, where the target can serve it.

        Local stores always can; the simulated architecture models treat
        record retrieval as a data-plane concern and return ``None``.
        """
        return None

    def refresh(self) -> None:
        """Flush any propagation the target delays (soft-state refresh); no-op elsewhere."""

    def rebuild_lineage_index(self) -> Dict[str, object]:
        """Force-rebuild the target's closure index; returns its stats.

        Local stores recompute synchronously (and write the index
        checkpoint if it is stale); the remote client submits the
        daemon's async build job and polls it to completion.  Targets
        without a rebuildable index raise
        :class:`~repro.errors.IndexError_`.
        """
        from repro.errors import IndexError_

        raise IndexError_(f"target {self.target!r} has no rebuildable closure index")

    def close(self) -> None:
        """Release underlying resources; idempotent -- further use may raise."""

    def __enter__(self) -> "PassClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalClient(PassClient):
    """The façade over a local :class:`~repro.core.pass_store.PassStore`.

    The wrapped store stays reachable as :attr:`store` -- the escape
    hatch for store-only capabilities (``remove_data``, abstraction
    rules, invariant checks) the cross-target protocol does not carry.
    """

    target = "local"

    def __init__(self, store: PassStore, owns_store: bool = True) -> None:
        self.store = store
        # connect() clients own their backend and close it with the client;
        # wrap() adapts a caller-owned store and must leave it usable.
        self.owns_store = owns_store
        self._stream: Optional[StreamEngine] = None
        self._closed = False
        # One registry serves the whole stats() schema: each pre-existing
        # snapshot (store counters, backend, planner statistics + feedback,
        # closure index, stream engine, sim) registers as a provider, and
        # the façade's op wrapper records rates/latency into the same
        # registry under "obs".
        # (The providers hold the store, never the client: see _weakly.)
        self.metrics = MetricsRegistry()
        self.metrics.register_provider("site", lambda: store.site)
        self.metrics.register_provider("records", lambda: len(store))
        self.metrics.register_provider("store", store.stats.snapshot)
        self.metrics.register_provider("backend", lambda: store.backend.stats.snapshot())
        self.metrics.register_provider("storage", store.storage_snapshot)
        self.metrics.register_provider(
            "planner",
            lambda: {
                "statistics": store.planner_statistics(),
                "feedback": store.feedback.snapshot(),
            },
        )
        self.metrics.register_provider("closure", lambda: store.closure.index_stats())
        self.metrics.register_provider("stream", _weakly(self._stream_stats))
        self.metrics.register_provider(
            "sim",
            lambda: SimReport.disabled_snapshot("local store: no simulated network"),
        )

    def _local_cost(self) -> Cost:
        return Cost(sites=[self.store.site])

    def _stream_engine(self, create: bool) -> Optional[StreamEngine]:
        if self._stream is None and create:
            # The store's post-commit hook feeds the engine, so standing
            # queries see every ingest -- including ones made directly on
            # client.store or by another wrapper of the same store.  The
            # store is the lineage oracle: descendant watches ride its
            # interval index.
            # (held weakly: store -> hook -> engine -> oracle -> store would
            # otherwise keep an unclosed client's store for the collector)
            self._stream = StreamEngine(lineage_oracle=_weakly(self.store.is_ancestor))
            self.store.add_ingest_hook(self._stream.on_ingest)
            # Run once, by close() or when the client is freed without one:
            # a wrap()ped store outlives its client, hook and all.
            self._detach_stream = weakref.finalize(self, self.store.remove_ingest_hook, self._stream.on_ingest)
        return self._stream

    def _subscriber_site(self, origin: Optional[str]) -> Optional[str]:
        return origin if origin is not None else self.store.site

    def publish(self, tuple_set: TupleSet, origin: Optional[str] = None) -> Result:
        pname = self.store.ingest(tuple_set)
        return Result(records=[pname], cost=self._local_cost())

    def publish_many(self, tuple_sets: Sequence[TupleSet], origin: Optional[str] = None) -> Result:
        pnames = self.store.ingest_many(tuple_sets)
        return Result(records=pnames, cost=self._local_cost())

    def query(
        self,
        query=None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
        origin: Optional[str] = None,
    ) -> Result:
        lowered, limit = _lift_query_limit(query, limit)
        digests, explain = self.store.query_explain(lowered)
        # Names stay digest strings until here: only the page is named,
        # by the graph's one PName per node.
        page, total = _paginate(digests, limit, offset)
        cost = self._local_cost()
        cost.rows_scanned = explain.rows_scanned
        return Result(
            records=list(map(self.store.graph.name_of, page)), cost=cost, total=total, offset=offset, explain=explain
        )

    def explain(self, query=None, *, origin: Optional[str] = None) -> Explain:
        lowered, _ = _lift_query_limit(query, None)
        return self.store.explain(lowered)

    def ancestors(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        found = self.store.ancestor_digests(coerce_pname(pname))
        return self._lineage_page(found, limit, offset)

    def descendants(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        found = self.store.descendant_digests(coerce_pname(pname))
        return self._lineage_page(found, limit, offset)

    def _lineage_page(self, found: List[str], limit: Optional[int], offset: int) -> Result:
        # As in query(): digest strings until here, only the page is named.
        page, total = _paginate(sorted(found), limit, offset)
        return Result(
            records=list(map(self.store.graph.name_of, page)), cost=self._local_cost(), total=total, offset=offset
        )

    def locate(self, pname, origin: Optional[str] = None) -> Result:
        pname = coerce_pname(pname)
        if pname not in self.store:
            return Result(notes=["unknown pname"])
        result = Result(records=[pname], cost=self._local_cost())
        if self.store.is_removed(pname):
            result.notes.append("data removed; provenance retained")
        return result

    def stats(self) -> Dict[str, object]:
        # Served entirely from the registry (providers keep the
        # documented per-block schema; "obs" carries the op telemetry).
        return {"target": self.target, **self.metrics.collect()}

    def describe_record(self, pname) -> Optional[ProvenanceRecord]:
        pname = coerce_pname(pname)
        if pname not in self.store:
            return None
        return self.store.get_record(pname)

    def _build_health_checks(self) -> list:
        return [
            obs_health.storage_check(self.store),
            obs_health.closure_check(self.store),
            obs_health.subscription_check(_weakly(self.subscriptions)),
            obs_health.trace_ring_check(),
        ]

    def rebuild_lineage_index(self) -> Dict[str, object]:
        return self.store.rebuild_closure_index()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._stream is not None:
            self._detach_stream()
            for subscription in self._stream.subscriptions():
                self._stream.unsubscribe(subscription)
            self._stream = None
        if self.owns_store:
            try:
                # A durable store whose indexes changed checkpoints
                # them, so the next open skips the replay; everything
                # else is a no-op.
                self.store.persist_index_checkpoint()
            except PassError:
                pass  # a crashed/closed backend must not block close()
            finally:
                # Whatever the checkpoints raise, the connection is released.
                self.store.backend.close()


class ModelClient(PassClient):
    """The façade over a Section IV architecture model.

    Operations need an origin site (who is publishing / asking); when
    none is given, publishes originate from the storage site nearest the
    tuple set's recorded location and queries from a fixed default
    origin (configurable via the ``origin`` URL parameter).
    """

    def __init__(self, model: ArchitectureModel, origin: Optional[str] = None) -> None:
        self.model = model
        self.topology: Topology = model.topology
        storage = [site.name for site in self.topology.sites(kind="storage")]
        self._storage_sites = storage or list(self.topology.site_names)
        if origin is not None and origin not in self.topology:
            raise ConfigurationError(
                f"origin site {origin!r} is not in the topology ({self.topology.site_names})"
            )
        self.default_origin = origin if origin is not None else self._storage_sites[0]
        self.target = model.name
        self._stream: Optional[StreamEngine] = None
        self._closed = False
        # The traffic snapshot carries per-kind counters (``by_kind``,
        # including the ``notify`` dissemination kind), so subscription
        # cost is readable from stats() without reaching into the
        # simulator; stream/sim/obs complete the uniform schema.
        self.metrics = MetricsRegistry()
        self.metrics.register_provider("traffic", self.model.traffic_snapshot)
        self.metrics.register_provider("stream", _weakly(self._stream_stats))
        self.metrics.register_provider("sim", _weakly(self._sim_snapshot))

    def _stream_engine(self, create: bool) -> Optional[StreamEngine]:
        if self._stream is None and create:
            self._stream = StreamEngine(
                lineage_oracle=_ancestry_oracle(self.model, self.default_origin)
            )
            # The model matches on its publish path and charges one
            # simulated "notify" message per delivery (kind "notify" in
            # the traffic stats), making dissemination cost comparable
            # across the Section IV architectures.
            self.model.attach_stream_engine(self._stream)
            # (run once, by close() or when the client is freed without one)
            self._detach_stream = weakref.finalize(self, self.model.detach_stream_engine, self._stream)
        return self._stream

    def _subscriber_site(self, origin: Optional[str]) -> Optional[str]:
        site = origin if origin is not None else self.default_origin
        if site not in self.topology:
            raise ConfigurationError(
                f"subscriber site {site!r} is not in the topology ({self.topology.site_names})"
            )
        return site

    # -- origin selection -----------------------------------------------
    def _origin_for(self, tuple_set: TupleSet) -> str:
        location = tuple_set.provenance.get("location")
        if isinstance(location, GeoPoint):
            try:
                return self.topology.nearest_site(location, kind="storage").name
            except Exception:
                pass
        return self.default_origin

    # -- the protocol ----------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin: Optional[str] = None) -> Result:
        site = origin if origin is not None else self._origin_for(tuple_set)
        return Result.from_operation(self.model.publish(tuple_set, site))

    def publish_many(self, tuple_sets: Sequence[TupleSet], origin: Optional[str] = None) -> Result:
        # Group by origin site (preserving first-appearance order) so each
        # site's batch travels as one bulk publish where the model has one.
        groups: List[Tuple[str, List[TupleSet]]] = []
        index: Dict[str, int] = {}
        for tuple_set in tuple_sets:
            site = origin if origin is not None else self._origin_for(tuple_set)
            if site not in index:
                index[site] = len(groups)
                groups.append((site, []))
            groups[index[site]][1].append(tuple_set)
        combined = Result()
        for site, batch in groups:
            combined.merge(Result.from_operation(self.model.publish_batch(batch, site)))
        return combined

    def query(
        self,
        query=None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
        origin: Optional[str] = None,
    ) -> Result:
        lowered, limit = _lift_query_limit(query, limit)
        operation = self.model.query(lowered, origin or self.default_origin)
        page, total = _paginate(operation.pnames, limit, offset)
        result = Result.from_operation(operation, total=total, offset=offset)
        result.records = page
        return result

    def ancestors(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        operation = self.model.ancestors(coerce_pname(pname), origin or self.default_origin)
        return self._lineage_page(operation, limit, offset)

    def descendants(
        self,
        pname,
        origin: Optional[str] = None,
        *,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Result:
        operation = self.model.descendants(coerce_pname(pname), origin or self.default_origin)
        return self._lineage_page(operation, limit, offset)

    def _lineage_page(self, operation, limit: Optional[int], offset: int) -> Result:
        ordered = sorted(operation.pnames, key=lambda p: p.digest)
        page, total = _paginate(ordered, limit, offset)
        result = Result.from_operation(operation, total=total, offset=offset)
        result.records = page
        return result

    def locate(self, pname, origin: Optional[str] = None) -> Result:
        return Result.from_operation(
            self.model.locate(coerce_pname(pname), origin or self.default_origin)
        )

    def explain(self, query=None, *, origin: Optional[str] = None) -> Explain:
        lowered, _ = _lift_query_limit(query, None)
        started = time.perf_counter()
        operation = self.model.query(lowered, origin or self.default_origin)
        duration_ms = (time.perf_counter() - started) * 1000.0
        children = self.model.query_explains()
        return Explain(
            site=self.target,
            path=f"scatter/gather over {len(children)} site plan(s)",
            path_kind="distributed",
            estimated_rows=sum(child.estimated_rows for child in children),
            actual_rows=len(operation.pnames),
            rows_scanned=operation.rows_scanned,
            duration_ms=duration_ms,
            cache_hit=bool(children) and all(child.cache_hit for child in children),
            used_index=any(child.used_index for child in children),
            notes=list(operation.notes),
            children=children,
        )

    def _sim_snapshot(self) -> Dict[str, object]:
        report = getattr(self.model.network, "last_sim_report", None)
        return report.snapshot() if report is not None else SimReport.disabled_snapshot()

    def stats(self) -> Dict[str, object]:
        facts: Dict[str, object] = {"target": self.target}
        facts.update(self.model.describe())
        facts.update(self.metrics.collect())
        return facts

    def simulate(
        self,
        tuple_sets: Sequence[TupleSet],
        *,
        clients: int = 1,
        config=None,
        schedule=None,
        think_ms: float = 0.0,
        sample_interval_ms: Optional[float] = None,
        alert_rules=None,
    ) -> SimReport:
        """Publish ``tuple_sets`` through N concurrent simulated clients.

        Runs the discrete-event kernel over this client's model: client
        ``i`` publishes every ``clients``-th tuple set, closed-loop,
        from a pinned origin site; message hops queue at shared site
        servers and timed :class:`~repro.sim.schedule.Schedule` events
        partition/heal sites mid-run.  The returned
        :class:`~repro.sim.workload.SimReport` (latency percentiles,
        per-site utilization) also becomes ``stats()["sim"]``.

        ``sample_interval_ms`` turns on virtual-clock time-series
        sampling (``report.timeseries``, daemon-identical schema);
        ``alert_rules`` evaluates alert rules on those series as the
        simulation runs (``report.alerts``).
        """
        return simulate_publish_workload(
            self.model,
            tuple_sets,
            clients=clients,
            config=config,
            schedule=schedule,
            think_ms=think_ms,
            sample_interval_ms=sample_interval_ms,
            alert_rules=alert_rules,
        )

    @property
    def supports_lineage(self) -> bool:
        return self.model.supports_lineage

    def refresh(self) -> None:
        force = getattr(self.model, "force_refresh", None)
        if callable(force):
            force()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._stream is not None:
            self._detach_stream()
            for subscription in self._stream.subscriptions():
                self._stream.unsubscribe(subscription)
            self._stream = None


def wrap(target, origin: Optional[str] = None) -> PassClient:
    """Adapt an existing store, model or client to the façade protocol.

    This is how code that already holds a constructed object (the
    evaluation harness, an example with a custom topology) joins the
    unified API without going through a URL.
    """
    if isinstance(target, PassClient):
        return target
    if isinstance(target, PassStore):
        return LocalClient(target, owns_store=False)
    if isinstance(target, ArchitectureModel):
        return ModelClient(target, origin=origin)
    raise ConfigurationError(
        f"cannot wrap {type(target).__name__}; expected PassStore, ArchitectureModel or PassClient"
    )
