"""The centralized warehouse model (Section IV-A).

"In a centralized system, provenance metadata is sent to some central
data warehouse, where it is examined and indexed; query processing is
then done within the warehouse.  (The warehouse would not store actual
sensor data.)  This offers speed, simplicity, and ease of use."

The model keeps the readings at the origin site and ships only the
provenance record to the warehouse, which maintains a full PASS store
(so every query class, including transitive closure, works and is fast).
Its two paper-identified weaknesses are modelled explicitly:

* **Update saturation** -- the warehouse indexes at most
  ``max_updates_per_second``; once the offered update rate exceeds that,
  publishes queue and their latency grows linearly with the backlog
  ("it may not scale to the volume of updates associated with sensor
  data").
* **Index/data decoupling** -- the warehouse's pointer back to the data
  can silently break when the origin site reorganises its storage
  ("the linkage back from the index to the data might break or end up
  pointing to the wrong thing").  :meth:`break_links` injects that
  corruption and :meth:`locate` reports dangling pointers.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.pass_store import PassStore
from repro.core.provenance import PName
from repro.core.query import Predicate, Query
from repro.core.tupleset import TupleSet
from repro.distributed.base import (
    POINTER_BYTES,
    ArchitectureModel,
    OperationResult,
    estimate_record_bytes,
)
from repro.errors import UnknownEntityError
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology

__all__ = ["CentralizedWarehouse"]


class CentralizedWarehouse(ArchitectureModel):
    """All provenance metadata indexed at a single warehouse site."""

    name = "centralized"
    supports_lineage = True
    requires_stable_hosts = True

    def __init__(
        self,
        topology: Topology,
        warehouse_site: str,
        network: Optional[NetworkSimulator] = None,
        max_updates_per_second: float = 2000.0,
        indexing_ms_per_update: float = 0.05,
    ) -> None:
        super().__init__(topology, network)
        if warehouse_site not in topology:
            raise UnknownEntityError(f"warehouse site {warehouse_site!r} not in topology")
        self.warehouse_site = warehouse_site
        self.index = PassStore(site=warehouse_site)
        self.max_updates_per_second = max_updates_per_second
        self.indexing_ms_per_update = indexing_ms_per_update
        # pname digest -> site holding the readings
        self._data_location: Dict[str, str] = {}
        self._broken_links: set = set()
        # Saturation model: a virtual queue of pending index updates.
        self._pending_updates = 0.0
        self._offered_rate: Optional[float] = None

    # ------------------------------------------------------------------
    # Saturation knobs (experiment E5 drives these)
    # ------------------------------------------------------------------
    def set_offered_update_rate(self, updates_per_second: Optional[float]) -> None:
        """Tell the saturation model the current offered update rate.

        ``None`` disables queueing (publishes are charged only their
        indexing time).  When the offered rate exceeds the warehouse
        capacity, each publish sees a queueing delay that grows with the
        backlog -- the standard behaviour of an overloaded single writer.
        """
        self._offered_rate = updates_per_second
        self._pending_updates = 0.0

    def _queueing_delay_ms(self) -> float:
        if self._offered_rate is None:
            return 0.0
        overload = self._offered_rate / self.max_updates_per_second
        if overload <= 1.0:
            return 0.0
        # Each arriving update leaves (overload - 1) unserved updates behind;
        # the backlog, and hence the wait, grows linearly while overloaded.
        self._pending_updates += overload - 1.0
        return self._pending_updates * (1000.0 / self.max_updates_per_second)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        result = OperationResult()
        record_bytes = estimate_record_bytes(tuple_set)
        self.network.send(
            origin_site, self.warehouse_site, record_bytes, "publish-provenance"
        )
        self.index.ingest_record(tuple_set.provenance)
        self._data_location[tuple_set.pname.digest] = origin_site
        # Indexing is real work *at the warehouse*: under kernel replay it
        # occupies the warehouse server, which is what saturates under
        # concurrent publishers.
        self.network.local_compute(
            self.indexing_ms_per_update + self._queueing_delay_ms(), self.warehouse_site
        )
        self.network.send(self.warehouse_site, origin_site, 64, "publish-ack")
        result.add_site(self.warehouse_site)
        result.pnames = [tuple_set.pname]
        self.published += 1
        # Subscribers are notified by the warehouse, which is where the
        # match happens -- dissemination cost scales with its fan-out.
        self._notify_subscribers(tuple_set, origin_site, result, source=self.warehouse_site)
        return result

    def publish_batch(self, tuple_sets, origin_site: str) -> OperationResult:
        """Ship a whole batch of provenance records in one round trip.

        The warehouse still spends indexing (and queueing, when
        saturated) time per record, but the batch pays wide-area latency and
        per-message overhead once -- the bulk-update path a real central
        warehouse would expose.
        """
        result = OperationResult()
        if not tuple_sets:
            return result
        batch_bytes = sum(estimate_record_bytes(ts) for ts in tuple_sets)
        self.network.send(
            origin_site, self.warehouse_site, batch_bytes, "publish-provenance-batch"
        )
        indexing_ms = 0.0
        for tuple_set in tuple_sets:
            self.index.ingest_record(tuple_set.provenance)
            self._data_location[tuple_set.pname.digest] = origin_site
            indexing_ms += self.indexing_ms_per_update + self._queueing_delay_ms()
            result.pnames.append(tuple_set.pname)
        self.network.local_compute(indexing_ms, self.warehouse_site)
        self.network.send(self.warehouse_site, origin_site, 64, "publish-batch-ack")
        result.add_site(self.warehouse_site)
        self.published += len(tuple_sets)
        for tuple_set in tuple_sets:
            self._notify_subscribers(tuple_set, origin_site, result, source=self.warehouse_site)
        return result

    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        query = self._start_query(query)
        result = OperationResult()
        self.network.send(
            origin_site, self.warehouse_site, self.query_request_bytes, "query"
        )
        matches = self._planned_query(self.index, query, result)
        self.network.send(
            self.warehouse_site, origin_site, POINTER_BYTES * max(1, len(matches)), "query-response"
        )
        result.add_site(self.warehouse_site)
        result.pnames = matches
        self.queries_run += 1
        return result

    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        result = OperationResult()
        self.network.send(
            origin_site, self.warehouse_site, self.query_request_bytes, "lineage-query"
        )
        found = self.index.ancestors(pname) if up else self.index.descendants(pname)
        self.network.send(
            self.warehouse_site, origin_site, POINTER_BYTES * max(1, len(found)), "lineage-response"
        )
        result.add_site(self.warehouse_site)
        result.pnames = sorted(found, key=lambda p: p.digest)
        self.queries_run += 1
        return result

    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        result = OperationResult()
        self._locate_round_trip(origin_site, self.warehouse_site, result)
        site = self._data_location.get(pname.digest)
        if site is None:
            result.notes.append("unknown pname")
            return result
        if pname.digest in self._broken_links:
            result.notes.append("dangling link")
            return result
        result.add_site(site)
        result.pnames = [pname]
        return result

    # ------------------------------------------------------------------
    # Inconsistency injection (experiment E5)
    # ------------------------------------------------------------------
    def break_links(self, fraction: float, rng: Optional[random.Random] = None) -> int:
        """Silently break a fraction of the index->data pointers.

        Models the loose coupling between a remote index and the data it
        points at; returns how many links were broken.
        """
        rng = rng if rng is not None else random.Random(0)
        broken = 0
        for digest in sorted(self._data_location):
            if rng.random() < fraction and digest not in self._broken_links:
                self._broken_links.add(digest)
                broken += 1
        return broken


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import register_scheme  # noqa: E402


@register_scheme("centralized")
def _connect_centralized(spec):
    """``centralized://?cities=london,boston&rate=2000`` -- the warehouse model."""
    from repro.api.client import ModelClient
    from repro.api.topologies import topology_from_spec

    topology = topology_from_spec(spec)
    model = CentralizedWarehouse(
        topology,
        warehouse_site=spec.text("warehouse", "warehouse"),
        max_updates_per_second=spec.number("rate", 2000.0),
    )
    return ModelClient(model, origin=spec.text("origin"))
