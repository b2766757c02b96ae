"""The local Provenance-Aware Storage System (PASS).

Section V of the paper defines the four properties that distinguish a
PASS from other storage:

* **P1** -- provenance is treated as a first-class object,
* **P2** -- provenance can be queried,
* **P3** -- non-identical data items do not have identical provenance,
* **P4** -- provenance is not lost if ancestor objects are removed.

and states the first research goal: "construct a purely local PASS ...
just storing and indexing offers challenges; in particular, one needs
efficient support for transitive closure queries."

:class:`PassStore` is that local PASS.  It composes:

* a :class:`~repro.storage.backend.StorageBackend` holding provenance
  records and tuple-set payloads,
* an :class:`~repro.index.attribute_index.AttributeIndex`,
  :class:`~repro.index.temporal_index.TemporalIndex` and
  :class:`~repro.index.spatial_index.SpatialIndex` for multi-dimensional
  lookups,
* a :class:`~repro.core.graph.ProvenanceGraph` plus a pluggable
  :class:`~repro.core.closure.ClosureStrategy` for recursive queries,
* and the :mod:`repro.core.query` evaluation machinery.

The store is the building block of everything above it: the distributed
architecture models each run one or more PassStores at their simulated
sites, and the evaluation harness measures them through this interface.
"""

from __future__ import annotations

import json
import logging
import time
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.abstraction import AbstractedLineage, AbstractionEngine, AbstractionRule
from repro.core.attributes import GeoPoint, Timestamp
from repro.core.bulk import collector_paused
from repro.core.closure import ClosureStrategy, LabelledClosure, make_closure
from repro.core.graph import ProvenanceGraph
from repro.core.provenance import Annotation, PName, ProvenanceRecord
from repro.core.query import LineageOracle, Predicate, Query
from repro.core.tupleset import SensorReading, TupleSet, readings_from_json, readings_to_bytes
from repro.errors import (
    DuplicateProvenanceError,
    PassError,
    UnknownEntityError,
)
from repro.index.attribute_index import AttributeIndex
from repro.obs import trace
from repro.index.spatial_index import SpatialIndex
from repro.index.temporal_index import TemporalIndex
from repro.query.executor import execute as _execute_plan
from repro.query.explain import Explain
from repro.query.feedback import FeedbackCollector
from repro.query.planner import QueryPlanner
from repro.query.statistics import Statistics
from repro.storage.backend import StorageBackend
from repro.storage.memory import MemoryBackend

__all__ = ["PassStore", "StoreStatistics"]

_LOGGER = logging.getLogger("repro.core")

#: the index checkpoint's name in the backend's blob table, and its layout number
_CHECKPOINT_KEY = "index:checkpoint"
_CHECKPOINT_FORMAT = 1
#: what a ``restore()`` raises on state that no ``snapshot()`` produces
_MALFORMED = (PassError, ValueError, TypeError, LookupError, AttributeError)


def _names_crc(digests: Sequence[str]) -> int:
    """Which records, in which order: tells one file's checkpoint from another's."""
    return zlib.crc32("".join(digests).encode("ascii"))


class StoreStatistics:
    """Counters the evaluation harness reads off a store.

    Accounting rules (kept honest by the planner's executor):

    * ``records_scanned`` -- candidates examined to answer queries: the
      records a scan read, or the entries an index probe yielded
      (whether or not their records then had to be fetched),
    * ``index_hits`` -- index *probes* executed, each counted exactly
      once; probes whose results are discarded are never charged,
    * ``full_scans`` -- queries that fell back to scanning every record,
    * ``plan_cache_hits`` -- queries whose predicate shape was already
      analysed by the planner.
    """

    def __init__(self) -> None:
        self.ingested = 0
        self.queries = 0
        self.lineage_queries = 0
        self.records_scanned = 0
        self.index_hits = 0
        self.full_scans = 0
        self.plan_cache_hits = 0

    def snapshot(self) -> dict:
        """The counters as a plain dict."""
        return {
            "ingested": self.ingested,
            "queries": self.queries,
            "lineage_queries": self.lineage_queries,
            "records_scanned": self.records_scanned,
            "index_hits": self.index_hits,
            "full_scans": self.full_scans,
            "plan_cache_hits": self.plan_cache_hits,
        }


class PassStore(LineageOracle):
    """A local provenance-aware store for sensor tuple sets.

    Parameters
    ----------
    backend:
        Where records and payloads live (default: in-memory).
    closure:
        Transitive-closure strategy, by instance or by name
        (``"naive"`` / ``"memoized"`` / ``"labelled"`` / ``"interval"``).
        Default is the labelled strategy; the interval strategy
        (:mod:`repro.lineage`) scales to much deeper/larger lineage.
    indexed_attributes:
        Restrict the attribute index to these names (``None`` = all).
    site:
        Optional site name, used when the store is embedded in a
        distributed architecture model.
    """

    def __init__(
        self,
        backend: Optional[StorageBackend] = None,
        closure: ClosureStrategy | str = "labelled",
        indexed_attributes: Optional[Iterable[str]] = None,
        site: str = "local",
    ) -> None:
        self.backend = backend if backend is not None else MemoryBackend()
        self.site = site
        self.stats = StoreStatistics()
        self._indexed_attributes = None if indexed_attributes is None else sorted(set(indexed_attributes))
        # True while an index holds what the backend's checkpoint does not.
        self._checkpoint_stale = False
        # What the open did about the index checkpoint (stats()["storage"]).
        self._index_restore_report = {
            "mode": "none",
            "covered": 0,
            "tail": 0,
            "bytes": 0,
            "reason": "no restore attempted",
        }
        # True while the backend holds the closure's labelling as it
        # stands: restored by the open, or written since, and no edge,
        # node, rebuild or switch after that.
        self._labelling_stored = False
        # What happened to the persisted closure labelling on open; the
        # sharded restore path overwrites this with its adoption report.
        self._closure_restore_report = {
            "mode": "none",
            "shards": self.backend.shard_count(),
            "adopted": 0,
            "stale": [],
            "reason": "no restore attempted",
        }
        started = time.perf_counter()
        # Everything a load allocates stays live (repro.core.bulk).
        with collector_paused():
            self._load_from_backend(closure)
        report = self._index_restore_report
        _LOGGER.info(
            "store opened: mode=%s covered=%d tail=%d reason=%s duration_ms=%.3f deferred=%d",
            report["mode"],
            report["covered"],
            report["tail"],
            report["reason"],
            (time.perf_counter() - started) * 1000.0,
            len(self.unbuilt_sections()),
        )
        self.planner = QueryPlanner(self)
        # The estimated-vs-actual feedback loop: drift-based plan
        # invalidation, statistics refresh scheduling, closure-strategy
        # advice and the hot-key result cache (repro.query.feedback).
        self.feedback = FeedbackCollector(self)
        self._abstraction_rules: List[AbstractionRule] = []
        # Post-commit ingest observers (the repro.stream engine hooks in
        # here).  Hooks fire strictly after the backend write, the graph
        # and closure edges, every index, and the statistics collector
        # have all committed -- an observer that turns around and queries
        # the store sees the new record fully ingested, never half-way.
        self._ingest_hooks: List[Callable[[PName, ProvenanceRecord], None]] = []

    def _empty_indexes(self) -> tuple:
        attribute_index = AttributeIndex(self._indexed_attributes)
        temporal_index = TemporalIndex()
        spatial_index = SpatialIndex()
        statistics = Statistics(attribute_index, temporal_index, spatial_index)
        return ProvenanceGraph(), attribute_index, temporal_index, spatial_index, statistics

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, tuple_set: TupleSet) -> PName:
        """Store a tuple set: its payload, its provenance, and all indexes.

        Enforces PASS property P3: if a record with the same PName is
        already stored, the tuple set being ingested must be the *same*
        data set; re-ingesting it is idempotent, but a different data set
        claiming identical provenance is rejected.
        """
        return self._ingest_entries([(tuple_set.provenance, self._encode_readings(tuple_set))])[0]

    def ingest_record(self, record: ProvenanceRecord) -> PName:
        """Store a provenance record without any payload (metadata only).

        Useful for registering ancestors known only by provenance (e.g.
        records received from another site).
        """
        return self._ingest_entries([(record, None)])[0]

    def ingest_many(self, tuple_sets: Sequence[TupleSet]) -> List[PName]:
        """Batched :meth:`ingest`: one backend batch write for the fresh records.

        Semantically identical to ingesting each tuple set in turn
        (including P3 duplicate checks, within the batch as well as
        against stored data), but the backend sees the fresh records as
        one :meth:`~repro.storage.backend.StorageBackend.put_batch` --
        on durable backends that is a single transaction, which is what
        makes the batched publish path measurably cheaper per tuple set.
        """
        return self._ingest_entries(
            [(ts.provenance, self._encode_readings(ts)) for ts in tuple_sets]
        )

    def _ingest_entries(
        self, entries: Sequence[Tuple[ProvenanceRecord, Optional[bytes]]]
    ) -> List[PName]:
        """The one write path: ``(record, payload-or-None)`` entries in, PNames out.

        A single publish is a batch of one, so on a durable backend its
        record and payload commit in the same transaction.  Entries whose
        PName is already known (stored, or earlier in this batch) are
        never rewritten; the P3 check happens here and nowhere else.

        Every stored record is a graph node -- after any open, and after
        every :meth:`_index_record` (:meth:`verify_invariants` reports one
        that is not) -- so the backend is asked about a PName only when
        the graph knows it: as a record, or merely as somebody's ancestor.
        """
        pnames: List[PName] = []
        fresh: List[Tuple[ProvenanceRecord, Optional[bytes]]] = []
        batch_payloads: Dict[str, Optional[bytes]] = {}
        graph, has_record = self.graph, self.backend.has_record
        for record, payload in entries:
            pname = record.pname()
            pnames.append(pname)
            if pname.digest not in batch_payloads and not (pname in graph and has_record(pname)):
                batch_payloads[pname.digest] = payload
                fresh.append((record, payload))
                continue
            if payload is None:
                continue
            known = batch_payloads.get(pname.digest)
            if known is None:
                known = self.backend.get_payload(pname)
            if known is not None and known != payload:
                raise DuplicateProvenanceError(
                    f"non-identical data offered under identical provenance {pname}"
                )
            # P4: a data set whose data was removed stays removed; only a
            # record known without payload (metadata-only ingest) gets the
            # data attached now.
            if known is None and not self.backend.is_removed(pname):
                self.backend.put_payload(pname, payload)
                batch_payloads[pname.digest] = payload
        if fresh:
            with trace.span("storage.put_batch", attrs={"records": len(fresh)}):
                self.backend.put_batch(fresh)
        for record, _ in fresh:
            self._index_record(record.pname(), record)
        self.stats.ingested += len(fresh)
        # Hooks fire only after the *whole* batch (backend transaction and
        # every record's indexes/graph edges) has committed, so a hook that
        # queries the store mid-batch cannot observe a torn batch either.
        for record, _ in fresh:
            self._fire_ingest_hooks(record.pname(), record)
        return pnames

    def _index_record(self, pname: PName, record: ProvenanceRecord) -> None:
        """Graph, closure and index maintenance for a stored record."""
        # P2: provenance is queryable, including recursively.
        self._labelling_stored = False
        self.closure.add_node(pname)
        for ancestor in record.ancestors:
            self.closure.add_node(ancestor)
            self.closure.add_edge(pname, ancestor)
        self._index_attributes(pname, record)

    def _index_attributes(self, pname: PName, record: ProvenanceRecord) -> None:
        """Everything :meth:`_index_record` maintains but the lineage."""
        self.attribute_index.add(pname, record)
        for annotation in record.annotations:
            self._index_annotation(pname, annotation)
        start = record.get("window_start")
        end = record.get("window_end")
        if isinstance(start, Timestamp) and isinstance(end, Timestamp):
            self.temporal_index.add(pname, start, end)
        location = record.get("location")
        if isinstance(location, GeoPoint):
            self.spatial_index.add(pname, location)
        self.statistics.observe(record)
        self.graph_stats.observe(pname, record.ancestors)
        self._checkpoint_stale = True

    # ------------------------------------------------------------------
    # Post-commit ingest hooks (the repro.stream notification path)
    # ------------------------------------------------------------------
    def add_ingest_hook(self, hook: Callable[[PName, ProvenanceRecord], None]) -> None:
        """Register an observer called after each *fresh* record commits.

        The hook runs strictly post-commit: backend, provenance graph,
        closure, all indexes and statistics are already updated when it
        fires, so the hook may query the store.  Idempotent re-ingests
        of already-stored records do not fire (nothing new landed).
        """
        self._ingest_hooks.append(hook)

    def remove_ingest_hook(self, hook: Callable[[PName, ProvenanceRecord], None]) -> None:
        """Unregister a previously added ingest hook (missing hooks are ignored)."""
        try:
            self._ingest_hooks.remove(hook)
        except ValueError:
            pass

    def _fire_ingest_hooks(self, pname: PName, record: ProvenanceRecord) -> None:
        # Feedback first: the result cache must be invalidated before
        # any hook (e.g. a stream subscription) turns around and queries
        # the store post-commit.
        self.feedback.on_ingest(pname, record)
        for hook in list(self._ingest_hooks):
            hook(pname, record)
        self._maybe_adapt_closure()

    def _maybe_adapt_closure(self) -> None:
        """Amortized DAG-shape check: switch ``labelled <-> interval``.

        The new strategy is built inside the publish that tripped the
        check; it is checkpointed when the store closes, as any labelling
        is.  Sharded backends are exempt -- their partitioned checkpoint
        format is interval-only, so the default must stand.
        """
        if not self.feedback.closure_check_due():
            return
        if self.backend.shard_count() > 1:
            return
        current = self.closure.name
        advised = self.feedback.advise_closure(current)
        if advised is not None and advised != current:
            # The publish that trips the check pays for the rebuild: say so.
            started = time.perf_counter()
            self.closure = make_closure(advised, self.graph)
            self.closure.rebuild()
            self.feedback.note_closure_switch()
            _LOGGER.info(
                "closure strategy switched: from=%s to=%s nodes=%d duration_ms=%.3f",
                current,
                advised,
                len(self.graph),
                (time.perf_counter() - started) * 1000.0,
            )

    # ------------------------------------------------------------------
    # Basic retrieval
    # ------------------------------------------------------------------
    def __contains__(self, pname: PName) -> bool:
        return self.backend.has_record(pname)

    def __len__(self) -> int:
        return self.backend.record_count()

    def get_record(self, pname: PName) -> ProvenanceRecord:
        """Fetch the provenance record named by ``pname``."""
        record = self.backend.get_record(pname)
        if record is None:
            raise UnknownEntityError(f"unknown data set {pname}")
        return record

    def get_readings(self, pname: PName) -> List[SensorReading]:
        """Fetch the readings of a tuple set; empty if data was removed."""
        payload = self.backend.get_payload(pname)
        if payload is None:
            if not self.backend.has_record(pname):
                raise UnknownEntityError(f"unknown data set {pname}")
            return []
        return self._decode_readings(payload)

    def get_tuple_set(self, pname: PName) -> TupleSet:
        """Reassemble a full tuple set (readings + provenance)."""
        return TupleSet(self.get_readings(pname), self.get_record(pname))

    def pnames(self) -> List[PName]:
        """Every PName known to the store."""
        return [pname for pname, _ in self.backend.iter_records()]

    # ------------------------------------------------------------------
    # Removal (PASS property P4)
    # ------------------------------------------------------------------
    def remove_data(self, pname: PName) -> None:
        """Remove a data set's readings while retaining its provenance.

        Afterwards the record still answers attribute and lineage
        queries, still appears in ancestor/descendant sets, and
        :meth:`is_removed` reports True -- provenance is not lost when
        ancestor objects are removed.
        """
        if not self.backend.has_record(pname):
            raise UnknownEntityError(f"unknown data set {pname}")
        self.backend.delete_payload(pname)
        self.backend.mark_removed(pname)
        if pname in self.graph:
            self.graph.mark_removed(pname)
        # Cached results may pre-date the removal (include_removed=False
        # answers change); anchors can't see removals, so drop them all.
        self.feedback.invalidate_all()

    def is_removed(self, pname: PName) -> bool:
        """True when the data set's readings were removed."""
        return self.backend.is_removed(pname)

    # ------------------------------------------------------------------
    # Annotations
    # ------------------------------------------------------------------
    def annotate(self, pname: PName, annotation: Annotation) -> None:
        """Attach an annotation to a stored data set and index it.

        Afterwards ``Q.attr("annotation:<key>")`` reads the latest
        annotation of that key (unless the record has an attribute of
        that very name), here and after a reopen.
        """
        record = self.get_record(pname)
        record.annotate(annotation)
        self.backend.put_record(record)
        self._index_annotation(pname, annotation)
        self._checkpoint_stale = True
        # An annotation changes what ``annotation:<key>`` queries match,
        # and no anchor sees it: drop every cached result (rare
        # administrative op).
        self.feedback.invalidate_all()

    def _index_annotation(self, pname: PName, annotation: Annotation) -> None:
        # Postings of superseded values stay: a probe on an ``annotation:``
        # name is never exact -- it yields candidates, and the residual
        # reads the latest value off the record.
        self.attribute_index.add_value(pname, f"annotation:{annotation.key}", annotation.value)

    # ------------------------------------------------------------------
    # Queries (PASS property P2)
    # ------------------------------------------------------------------
    def query(self, query: Query | Predicate) -> List[PName]:
        """Execute a query and return matching PNames.

        A bare predicate is wrapped in a default :class:`Query`.
        Execution goes through the cost-based planner
        (:mod:`repro.query`): the predicate is normalized, the cheapest
        index access path (or a full scan) generates candidates, and
        whatever the path did not answer exactly is evaluated on them.
        """
        digests, _ = self.query_explain(query)
        return [PName(digest) for digest in digests]

    def query_records(self, query: Query | Predicate) -> List[Tuple[PName, ProvenanceRecord]]:
        """Like :meth:`query` but returns ``(PName, record)`` pairs.

        Records the executor read to answer are reused; the rest (all of
        them, when an index answered alone) are fetched here, once each.
        """
        digests, fetched, _ = self._execute(query)
        pnames = [PName(digest) for digest in digests]
        missing = [pname for pname in pnames if pname.digest not in fetched]
        if missing:
            fetched.update((pname.digest, record) for pname, record in self.backend.get_records(missing))
        return [(pname, fetched[pname.digest]) for pname in pnames]

    def query_explain(
        self, query: Query | Predicate, force_full_scan: bool = False
    ) -> Tuple[List[str], Explain]:
        """Planned execution returning ``(digests, Explain)``.

        The matches come as the executor names them, by digest string;
        callers wrap what they hand out (:meth:`query` all of it, the
        façade a page).  ``force_full_scan`` bypasses the planner's path
        choice (parity tests and benchmark baselines use it).
        """
        digests, _, explain = self._execute(query, force_full_scan)
        return digests, explain

    def _execute(self, query: Query | Predicate, force_full_scan: bool = False):
        """Count the query and run it: the executor's ``(digests, fetched, Explain)``."""
        if isinstance(query, Predicate):
            query = Query(predicate=query)
        self.stats.queries += 1
        if query.requires_lineage:
            self.stats.lineage_queries += 1
        return _execute_plan(self, query, force_full_scan=force_full_scan)

    def explain(self, query: Query | Predicate) -> Explain:
        """Execute ``query`` and report what the planner did.

        The query genuinely runs (estimated *and* actual row counts are
        reported); use :meth:`query_explain` to also keep the results.
        """
        _, explain = self.query_explain(query)
        return explain

    # ------------------------------------------------------------------
    # Lineage queries (transitive closure)
    # ------------------------------------------------------------------
    def is_ancestor(self, ancestor: PName, descendant: PName) -> bool:
        """LineageOracle interface: is ``descendant`` derived from ``ancestor``?"""
        if ancestor not in self.graph or descendant not in self.graph:
            return False
        return self.closure.reachable(ancestor, descendant)

    def ancestors(self, pname: PName) -> Set[PName]:
        """All data sets ``pname`` was transitively derived from."""
        return self._lineage(self.closure.ancestors, "closure.ancestors", pname)

    def descendants(self, pname: PName) -> Set[PName]:
        """All data sets transitively derived from ``pname`` (the taint set)."""
        return self._lineage(self.closure.descendants, "closure.descendants", pname)

    def ancestor_digests(self, pname: PName) -> List[str]:
        """:meth:`ancestors` as digest strings: a new list, each once, in no order."""
        return self._lineage(self.closure.ancestor_digests, "closure.ancestors", pname)

    def descendant_digests(self, pname: PName) -> List[str]:
        """:meth:`descendants` as digest strings: a new list, each once, in no order."""
        return self._lineage(self.closure.descendant_digests, "closure.descendants", pname)

    def _lineage(self, enumerate_closure, span_name: str, pname: PName):
        self.stats.lineage_queries += 1
        if pname not in self.graph:
            raise UnknownEntityError(f"unknown data set {pname}")
        with trace.span(span_name, attrs={"focus": pname.short}):
            return enumerate_closure(pname)

    def raw_sources(self, pname: PName) -> Set[PName]:
        """The raw (underived) data sets at the bottom of ``pname``'s lineage."""
        self.stats.lineage_queries += 1
        return self.graph.raw_sources(pname)

    def derivation_path(self, descendant: PName, ancestor: PName) -> Optional[List[PName]]:
        """One derivation path between two data sets ("what do I need to reproduce this")."""
        self.stats.lineage_queries += 1
        return self.graph.path(descendant, ancestor)

    # ------------------------------------------------------------------
    # Abstraction (Section V)
    # ------------------------------------------------------------------
    def add_abstraction_rule(self, rule: AbstractionRule) -> None:
        """Register a provenance-abstraction rule used by :meth:`report_lineage`."""
        self._abstraction_rules.append(rule)

    def report_lineage(
        self, pname: PName, max_depth: Optional[int] = None
    ) -> AbstractedLineage:
        """Report the ancestry of ``pname`` with abstraction rules applied."""
        engine = AbstractionEngine(
            self.graph,
            resolver=lambda p: self.backend.get_record(p),
            rules=self._abstraction_rules,
        )
        return engine.report(pname, max_depth=max_depth)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def verify_invariants(self) -> List[str]:
        """Check the four PASS properties; return a list of violations (empty = good).

        Used by tests, the property-based suite and experiment E13.
        """
        violations: List[str] = []
        seen_digests: Dict[str, PName] = {}
        for pname, record in self.backend.iter_records():
            # P1/P3: identity is the provenance digest and digests are unique
            # per stored record by construction; verify record round-trips.
            if record.pname().digest != pname.digest:
                violations.append(f"record stored under wrong PName: {pname}")
            if pname.digest in seen_digests:
                violations.append(f"duplicate PName in backend: {pname}")
            seen_digests[pname.digest] = pname
            # The write path takes a PName the graph has never seen for fresh.
            if pname not in self.graph:
                violations.append(f"stored record {pname.short} is not a graph node")
            # P4: every ancestor referenced must still be present in the graph.
            for ancestor in record.ancestors:
                if ancestor not in self.graph:
                    violations.append(
                        f"ancestor {ancestor.short} of {pname.short} missing from graph"
                    )
        # P4 continued: removed data sets keep their records.
        for pname in self.backend.removed_pnames():
            if not self.backend.has_record(pname):
                violations.append(f"removed data set {pname.short} lost its provenance record")
        return violations

    def _load_from_backend(self, closure: ClosureStrategy | str) -> None:
        """Indexes, graph and closure strategy for what the backend already holds.

        A durable backend may hold the indexes of an earlier session
        (docs/STORAGE.md, "Open path"); otherwise they start empty and
        every record is replayed into them.  Either way the records fill
        the *graph*, and the strategy is made over the filled graph
        afterwards: labels that no lineage read has asked for yet are
        not built by the open.
        """
        indexes, replay_after = self._adopt_index_checkpoint() or (self._empty_indexes(), None)
        self.graph, self.attribute_index, self.temporal_index, self.spatial_index, self.statistics = indexes
        # The DAG-shape collector the statistics own (repro.core stays
        # import-independent of repro.lineage; see make_closure).
        self.graph_stats = self.statistics.graph
        # (a SQLite file reopened after a crash has rows past its checkpoint)
        replay = self.backend.iter_records() if replay_after is None else self.backend.iter_records(replay_after)
        tail = 0
        for pname, record in replay:
            # (not graph.add_record: it would hash each decoded record for
            # the name the backend just gave)
            self.graph.add_node(pname)
            for ancestor in record.ancestors:
                self.graph.add_edge(pname, ancestor)
            self._index_attributes(pname, record)
            tail += 1
        self._index_restore_report["tail"] = tail
        if replay_after is None and tail:
            self._index_restore_report["mode"] = "replayed"
        # One read of the markers, not one statement per record.
        for pname in self.backend.removed_pnames():
            if pname in self.graph:
                self.graph.mark_removed(pname)
        if isinstance(closure, str):
            self.closure = make_closure(closure, self.graph)
        else:
            # Never adopt a caller-supplied strategy instance directly:
            # rebinding its graph would corrupt any other store sharing it.
            self.closure = closure.for_graph(self.graph)
        if len(self.graph):
            self._restore_closure_index()

    # ------------------------------------------------------------------
    # Index checkpoint (docs/STORAGE.md, "Open path")
    # ------------------------------------------------------------------
    def _adopt_index_checkpoint(self) -> Optional[Tuple[tuple, int]]:
        """The indexes an earlier session checkpointed, if they still describe the backend.

        Returns ``(indexes, marker)`` -- the five structures of
        :meth:`_empty_indexes`, filled, and the backend marker of the last
        record they cover -- or ``None`` with the reason recorded; the
        caller then replays.  Refusing is always safe, adopting never
        executes anything the blob holds: it is zlib over JSON.
        """
        report = self._index_restore_report

        def refused(reason: str) -> None:
            report["reason"] = reason

        # (asked for no rows: only whether there is an order -- a backend
        # without one is not asked for a blob it cannot have)
        if self.backend.record_order(upto=0) is None:
            return refused("backend keeps no record order (volatile, or sharded)")
        blob = self.backend.get_index_blob(_CHECKPOINT_KEY)
        if blob is None:
            return refused("no checkpoint stored")
        report["bytes"] = len(blob)
        try:
            # Bounded, so that a hostile blob cannot inflate without limit;
            # a real one inflates about four times.
            inflater = zlib.decompressobj()
            text = inflater.decompress(blob, 64 * len(blob) + (1 << 20))
            if not inflater.eof:
                return refused("checkpoint does not decompress: truncated or oversized")
            state = json.loads(text)
        except zlib.error as error:
            return refused(f"checkpoint does not decompress: {error}")
        except (ValueError, RecursionError):
            return refused("checkpoint is not JSON")
        if not isinstance(state, dict) or state.get("format") != _CHECKPOINT_FORMAT:
            found = state.get("format") if isinstance(state, dict) else type(state).__name__
            return refused(f"checkpoint format {found!r}, this code reads {_CHECKPOINT_FORMAT}")
        if state.get("indexed") != self._indexed_attributes:
            return refused("indexed attributes changed since the checkpoint")
        marker, count, bare = state.get("covered"), state.get("count"), state.get("bare")
        # (a marker is a non-negative 64-bit integer)
        if not (isinstance(marker, int) and 0 <= marker < 2**63 and isinstance(count, int) and isinstance(bare, list)):
            return refused("malformed checkpoint header")
        digests = self.backend.record_order(upto=marker)[0]
        if len(digests) != count:
            # INSERT OR REPLACE moved an annotated record past the marker.
            return refused(f"covered row rewritten: {len(digests)} of {count} covered records remain")
        if _names_crc(digests) != state.get("names_crc"):
            return refused("checkpoint describes another file's records")
        indexes = self._empty_indexes()
        graph, attribute_index, temporal_index, spatial_index, statistics = indexes
        try:
            nodes = digests + [PName(str(digest)).digest for digest in bare]
            graph.restore(state["graph"], nodes)
            attribute_index.restore(state["attributes"], digests)
            temporal_index.restore(state["temporal"], digests)
            spatial_index.restore(state["spatial"], digests)
            statistics.restore(state["statistics"])
            statistics.graph.restore(state["graph_statistics"], nodes)
        except _MALFORMED as error:
            return refused(f"malformed checkpoint: {type(error).__name__}: {error}")
        report.update(mode="adopted", covered=count, reason=None)
        return indexes, marker

    def persist_index_checkpoint(self) -> bool:
        """Checkpoint the indexes into the backend; True when a blob was written.

        A no-op unless an index changed since the last checkpoint and the
        backend keeps a record order (a single SQLite file does; a volatile
        or sharded one does not), so the façade calls it unconditionally on
        ``close()``.  The write is O(store); records are named by position
        in the backend's order.
        """
        order = self.backend.record_order() if self._checkpoint_stale else None
        if order is None:
            return False
        digests, marker = order
        nodes = self.graph.node_digests()
        if not all(digest in nodes for digest in digests):
            # A record written under this store, which never indexed it:
            # leave the older checkpoint, the next open replays past it.
            return False
        position_of = {digest: position for position, digest in enumerate(digests)}
        bare = sorted(digest for digest in nodes if digest not in position_of)
        for digest in bare:
            position_of[digest] = len(position_of)
        state = {
            "format": _CHECKPOINT_FORMAT,
            "indexed": self._indexed_attributes,
            "covered": marker,
            "count": len(digests),
            "names_crc": _names_crc(digests),
            "bare": bare,
            "graph": self.graph.snapshot(position_of),
            "attributes": self.attribute_index.snapshot(position_of),
            "temporal": self.temporal_index.snapshot(position_of),
            "spatial": self.spatial_index.snapshot(position_of),
            "statistics": self.statistics.checkpoint(),
            "graph_statistics": self.graph_stats.checkpoint(position_of),
        }
        payload = zlib.compress(json.dumps(state, separators=(",", ":")).encode("utf-8"))
        stored = self.backend.put_index_blob(_CHECKPOINT_KEY, payload)
        if stored:
            self._checkpoint_stale = False
        return stored

    # ------------------------------------------------------------------
    # Closure-index persistence (repro.lineage)
    # ------------------------------------------------------------------
    def _closure_index_key(self) -> str:
        return f"closure:{self.closure.name}"

    def _restore_closure_index(self) -> bool:
        """Adopt a persisted reachability labelling, if it still matches.

        Called after a backend rebuild: the graph has been reconstructed
        from the records, so the snapshot's structural fingerprint can
        be checked against reality.  Any mismatch (different strategy,
        stale snapshot, corrupt blob) falls back to the strategy's own
        lazy rebuild -- restoring is an optimization, never a must.

        On a sharded backend the labelling is checkpointed per shard
        (:mod:`repro.lineage.partition`): shards whose records did not
        change are adopted as-is, and additions-only drift is caught up
        incrementally instead of triggering a global recompute.
        """
        if self.backend.shard_count() > 1:
            from repro.lineage.partition import restore_partitioned

            report = restore_partitioned(self)
            self._closure_restore_report = report
            return report["mode"] in ("full", "partial")
        blob = self.backend.get_index_blob(self._closure_index_key())
        if blob is None:
            self._closure_restore_report["reason"] = "no persisted labelling"
            return False
        try:
            state = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._closure_restore_report["reason"] = "unreadable labelling blob"
            return False
        if not isinstance(state, dict):
            self._closure_restore_report["reason"] = "unreadable labelling blob"
            return False
        adopted = self.closure.restore(state, self.graph.fingerprint())
        self._labelling_stored = adopted
        if adopted:
            self._closure_restore_report = {
                "mode": "full",
                "shards": 1,
                "adopted": 1,
                "stale": [],
                "reason": None,
            }
        else:
            self._closure_restore_report["reason"] = "snapshot was refused by the strategy"
        return adopted

    def persist_closure_index(self) -> bool:
        """Snapshot the closure strategy's labelling into the backend.

        Returns True when something was persisted.  Strategies without
        persistable state (naive/memoized/labelled), a labelling the
        backend already holds as it stands, and backends without blob
        storage all make this a no-op that hashes nothing, so callers can
        invoke it unconditionally (the façade does, on ``close()``).
        """
        if self.backend.shard_count() > 1:
            from repro.lineage.partition import persist_partitioned

            return persist_partitioned(self)
        if self._labelling_stored or not self.closure.has_snapshot():
            return False
        state = self.closure.snapshot(self.graph.fingerprint())
        payload = json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self._labelling_stored = self.backend.put_index_blob(self._closure_index_key(), payload)
        return self._labelling_stored

    def rebuild_closure_index(self, strategy: Optional[str] = None) -> dict:
        """Force-rebuild the closure index and checkpoint it; returns stats.

        The administrative verb behind the daemon's async build job
        (and any operator who suspects a stale labelling): recompute the
        strategy's structures from the live graph, persist the fresh
        snapshot where the strategy supports it, and report the
        resulting :meth:`ClosureStrategy.index_stats` plus whether a
        checkpoint was written.

        ``strategy`` swaps the closure strategy *before* rebuilding --
        the daemon's ``rebuild_index`` job routes through here, so a
        requested switch is observable the same way on every connect
        target.
        """
        switched_from = None
        if strategy is not None and strategy != self.closure.name:
            switched_from = self.closure.name
            self.closure = make_closure(strategy, self.graph)
        self.closure.rebuild()
        self._labelling_stored = False
        persisted = self.persist_closure_index()
        stats = dict(self.closure.index_stats())
        stats["persisted"] = persisted
        if switched_from is not None:
            stats["switched_from"] = switched_from
        return stats

    def refresh_statistics(self) -> dict:
        """Rebuild attribute statistics and the DAG-shape summary in place.

        The feedback loop schedules this on accumulated drift or ingest
        volume; operators can call it directly.  Returns the fresh
        statistics snapshot.
        """
        self.statistics.rebuild(record for _, record in self.backend.iter_records())
        self.graph_stats.recompute(self.graph)
        self.feedback.note_refreshed()
        return self.statistics.snapshot()

    def storage_snapshot(self) -> dict:
        """The frozen ``stats()["storage"]`` block for this store.

        The backend's storage profile (kind, shard layout, group-commit
        and parallel-scan counters) plus what happened to the persisted
        closure labelling when the store was opened.
        """
        snapshot = self.backend.storage_stats()
        snapshot["closure_restore"] = dict(self._closure_restore_report)
        snapshot["index_restore"] = dict(self._index_restore_report, deferred=self.unbuilt_sections())
        return snapshot

    def unbuilt_sections(self) -> List[str]:
        """The checkpointed index sections no probe has built yet, sorted.

        ``attributes:<name>`` per attribute, ``spatial`` and ``temporal``;
        empty unless the open adopted a checkpoint (docs/STORAGE.md).
        """
        sections = [f"attributes:{name}" for name in self.attribute_index.unbuilt()]
        if not self.spatial_index.built:
            sections.append("spatial")
        if not self.temporal_index.built:
            sections.append("temporal")
        return sections

    # ------------------------------------------------------------------
    # Reading (de)serialisation
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_readings(readings: Iterable[SensorReading]) -> bytes:
        """Canonical payload bytes; P3 compares these byte for byte.

        A tuple set received over the wire carries them already.
        """
        if isinstance(readings, TupleSet) and readings.payload is not None:
            return readings.payload
        return readings_to_bytes(readings)

    @staticmethod
    def _decode_readings(payload: bytes) -> List[SensorReading]:
        return readings_from_json(json.loads(payload.decode("utf-8")))


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import ConnectionSpec, register_scheme  # noqa: E402


def _store_from_spec(
    spec: ConnectionSpec,
    backend: Optional[StorageBackend],
    default_closure: str = "labelled",
) -> PassStore:
    return PassStore(
        backend=backend,
        closure=spec.text("closure", default_closure),
        indexed_attributes=spec.listing("indexed"),
        site=spec.text("site", "local"),
    )


def _spec_shards(spec: ConnectionSpec) -> int:
    """The ``?shards=N`` connection parameter (1 = unsharded)."""
    return spec.integer("shards", 1)


@register_scheme("memory")
def _connect_memory(spec: ConnectionSpec):
    """``memory://`` -- a local in-memory PASS store (``?shards=N`` partitions it)."""
    from repro.api.client import LocalClient
    from repro.storage.factory import make_backend

    shards = _spec_shards(spec)
    backend = make_backend("memory", shards=shards)
    # A sharded store defaults to the interval strategy: its labelling is
    # the one the partitioned per-shard checkpoint format can persist.
    default_closure = "interval" if shards > 1 else "labelled"
    return LocalClient(_store_from_spec(spec, backend, default_closure))


@register_scheme("sqlite")
def _connect_sqlite(spec: ConnectionSpec):
    """``sqlite:///pass.db`` -- a local PASS over a durable SQLite backend.

    ``?shards=N`` digest-partitions the database across N SQLite files
    (``pass.db.shard00`` ... ``pass.db.shard0{N-1}``) with group commit
    and parallel scans; reopen must use the same N.
    """
    from repro.api.client import LocalClient
    from repro.storage.factory import make_backend

    shards = _spec_shards(spec)
    backend = make_backend("sqlite", path=spec.database_path(), shards=shards)
    default_closure = "interval" if shards > 1 else "labelled"
    return LocalClient(_store_from_spec(spec, backend, default_closure))
