"""The distributed-database model (Section IV-B, first architecture).

"Distributed databases inherently provide unified schemas, a useful
property.  However, they have limited ability to process recursive
queries (e.g., transitive closure), and optimizing continuous,
distributed queries is still an open problem."  The paper also notes
that "both of these models provide strong consistency: full transaction
semantics.  However, this may be overkill for sensor data".

The model:

* partitions provenance records across all participating sites by a hash
  of the record's PName (a unified, system-chosen partitioning -- the
  client does not get to pick locality),
* runs every write as a transaction coordinated by the origin site:
  prepare + commit messages to the partition holding the record *and* to
  the partitions holding each ancestor's edge entry (strong consistency,
  so the cost of a write grows with fan-in),
* answers attribute queries by scattering the query to every partition
  and gathering results (no global secondary index),
* answers recursive queries the only way a partitioned relational system
  can: level-by-level semi-joins, one round of messages per generation
  of ancestry, which is exactly the "limited ability to process
  recursive queries" the paper describes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Set

from repro.core.provenance import PName
from repro.core.query import Predicate, Query
from repro.core.tupleset import TupleSet
from repro.distributed.base import (
    POINTER_BYTES,
    ArchitectureModel,
    OperationResult,
    SiteStores,
    estimate_record_bytes,
)
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology

__all__ = ["DistributedDatabase"]

_PREPARE_BYTES = 128
_COMMIT_BYTES = 64


class DistributedDatabase(ArchitectureModel):
    """Hash-partitioned, strongly consistent provenance storage."""

    name = "distributed-db"
    supports_lineage = True
    requires_stable_hosts = True

    def __init__(self, topology: Topology, network: Optional[NetworkSimulator] = None) -> None:
        super().__init__(topology, network)
        self._sites = topology.site_names
        self._stores = SiteStores(self._sites)
        # pname digest -> site where the readings live (always the origin).
        self._data_location: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def partition_for(self, pname: PName) -> str:
        """The site responsible for a record, by hash of its PName."""
        digest = hashlib.sha256(pname.digest.encode("utf-8")).hexdigest()
        return self._sites[int(digest[:8], 16) % len(self._sites)]

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        result = OperationResult()
        record = tuple_set.provenance
        pname = tuple_set.pname
        home = self.partition_for(pname)
        record_bytes = estimate_record_bytes(tuple_set)

        # Participants: the record's partition plus each ancestor's
        # partition (their edge entries must be updated atomically).
        participants: Set[str] = {home}
        for ancestor in record.ancestors:
            participants.add(self.partition_for(ancestor))

        # Two-phase commit from the origin: prepare round, then commit round.
        self.network.broadcast(
            origin_site, sorted(participants), _PREPARE_BYTES + record_bytes, "txn-prepare"
        )
        with self.network.parallel():
            for site in sorted(participants):
                self.network.send(site, origin_site, 32, "txn-vote")
        self.network.broadcast(
            origin_site, sorted(participants), _COMMIT_BYTES, "txn-commit"
        )

        self._stores.store(home).ingest_record(record)
        for ancestor in record.ancestors:
            # The ancestor partition records the edge by storing the child
            # record too (a simple, adequate stand-in for an edge table).
            self._stores.store(self.partition_for(ancestor)).ingest_record(record)
        self._data_location[pname.digest] = origin_site

        result.sites_contacted = sorted(participants)
        result.pnames = [pname]
        self.published += 1
        # The record's home partition saw the committed write; it pushes
        # the notifications.
        self._notify_subscribers(tuple_set, origin_site, result, source=home)
        return result

    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        query = self._start_query(query)
        result = OperationResult()
        # Scatter to every partition, gather the matches.
        matches = self._broadcast_gather(
            origin_site,
            self._sites,
            self.query_request_bytes,
            "query",
            "query-response",
            lambda site: self._planned_query(self._stores.store(site), query, result),
        )
        result.sites_contacted = list(self._sites)
        result.pnames = sorted(set(matches), key=lambda p: p.digest)
        self.queries_run += 1
        return result

    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        """Level-by-level distributed closure: one message round per generation."""
        result = OperationResult()
        found: Set[PName] = set()
        frontier: Set[PName] = {pname}
        rounds = 0
        while frontier:
            rounds += 1
            next_frontier: Set[PName] = set()
            # Each frontier element lives on one partition; ask them all in
            # parallel, so this round's latency is the slowest partition.
            contacted: Set[str] = set()
            with self.network.parallel() as fanout:
                for node in sorted(frontier, key=lambda p: p.digest):
                    site = self.partition_for(node)
                    contacted.add(site)
                    with fanout.branch():
                        self.network.send(origin_site, site, 128, "closure-step")
                        store = self._stores.store(site)
                        if node in store.graph:
                            neighbours = (
                                store.graph.parents(node) if up else store.graph.children(node)
                            )
                        else:
                            neighbours = []
                        self.network.send(
                            site, origin_site, POINTER_BYTES * max(1, len(neighbours)), "closure-reply"
                        )
                    for neighbour in neighbours:
                        if neighbour not in found and neighbour.digest != pname.digest:
                            next_frontier.add(neighbour)
            for site in sorted(contacted):
                result.add_site(site)
            found |= next_frontier
            frontier = next_frontier
        result.pnames = sorted(found, key=lambda p: p.digest)
        result.notes.append(f"closure rounds: {rounds}")
        self.queries_run += 1
        return result

    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        result = OperationResult()
        self._locate_round_trip(origin_site, self.partition_for(pname), result)
        site = self._data_location.get(pname.digest)
        if site is None:
            result.notes.append("unknown pname")
        else:
            result.add_site(site)
            result.pnames = [pname]
        return result


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import register_scheme  # noqa: E402


@register_scheme("distributed-db", "ddb")
def _connect_distributed_db(spec):
    """``distributed-db://?sites=8`` -- hash-partitioned strongly consistent storage."""
    from repro.api.client import ModelClient
    from repro.api.topologies import topology_from_spec

    model = DistributedDatabase(topology_from_spec(spec))
    return ModelClient(model, origin=spec.text("origin"))
