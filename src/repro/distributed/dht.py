"""The distributed-hash-table model (Section IV-C).

"The most widely-used mechanism in this class is the distributed hash
table, or DHT.  However, DHTs do not appear to be a suitable solution.
First, storing data objects by hashing a key inherently assumes that the
location of these objects is unimportant ...  Second, periodic updates
of distinct queriable attributes to DHTs scale to only tens of thousands
of updaters ...  Finally, support for efficient recursive queries is so
far nonexistent."

The model is a Chord-like ring:

* every site owns a position on a 2^32 identifier ring; keys are hashed
  to the ring and stored at their successor,
* lookups route greedily through finger tables, charging O(log n) hops
  of real (topology) latency per lookup -- routing ignores geography, so
  a Boston key's route may bounce through Singapore,
* publishing a tuple set puts the record at the hash of its PName *and*
  puts one index entry per queriable attribute value (that is what
  "periodic updates of distinct queriable attributes" means), so the
  update fan-out per tuple set equals the number of indexed attributes,
* per-node update capacity is finite; experiment E9 sweeps the number of
  concurrent updaters and reports when offered load exceeds ring
  capacity (the "tens of thousands of updaters" wall),
* attribute queries are supported only as exact-match key lookups
  (equality on an indexed attribute); anything else -- ranges, spatial
  predicates -- must flood the ring, and recursive lineage queries are
  iterated per-edge lookups, each paying full routing cost.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.core.attributes import canonical_encode
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import (
    AncestorOf,
    And,
    AttributeEquals,
    DerivedFrom,
    LineageOracle,
    Not,
    Or,
    Predicate,
    Query,
)
from repro.core.tupleset import TupleSet
from repro.distributed.base import (
    LOCATE_REQUEST_BYTES,
    POINTER_BYTES,
    ArchitectureModel,
    OperationResult,
    estimate_record_bytes,
)
from repro.errors import ConfigurationError
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology
from repro.query.explain import Explain

__all__ = ["DistributedHashTable"]

_RING_BITS = 32
_RING_SIZE = 2 ** _RING_BITS


def _key(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) % _RING_SIZE


class DistributedHashTable(ArchitectureModel):
    """A Chord-like DHT indexing provenance attribute values.

    Parameters
    ----------
    indexed_attributes:
        Attribute names published into the DHT as queriable keys.  Every
        publish writes one entry per attribute the record carries.
    per_node_updates_per_second:
        Capacity of one ring node; used by the update-scaling sweep.
    """

    name = "dht"
    supports_lineage = True  # possible, but each edge costs a full routed lookup
    requires_stable_hosts = False
    query_request_bytes = 192

    def __init__(
        self,
        topology: Topology,
        network: Optional[NetworkSimulator] = None,
        indexed_attributes: Optional[List[str]] = None,
        per_node_updates_per_second: float = 50.0,
    ) -> None:
        super().__init__(topology, network)
        self._sites = topology.site_names
        if len(self._sites) < 2:
            raise ConfigurationError("a DHT needs at least two participating sites")
        self.indexed_attributes = list(
            indexed_attributes
            if indexed_attributes is not None
            else ["domain", "network", "city", "region", "stage", "patient"]
        )
        self.per_node_updates_per_second = per_node_updates_per_second
        # Ring positions.
        self._position: Dict[str, int] = {site: _key(f"node:{site}") for site in self._sites}
        self._ring: List[Tuple[int, str]] = sorted(
            (position, site) for site, position in self._position.items()
        )
        # Storage: records keyed by pname hash; attribute index entries.
        self._records: Dict[str, Dict[str, ProvenanceRecord]] = {site: {} for site in self._sites}
        self._attr_entries: Dict[str, Dict[str, Set[str]]] = {site: {} for site in self._sites}
        self._children: Dict[str, Set[str]] = {}
        self._data_location: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Ring mechanics
    # ------------------------------------------------------------------
    def successor(self, key: int) -> str:
        """The site responsible for ``key`` (first ring position >= key)."""
        for position, site in self._ring:
            if position >= key:
                return site
        return self._ring[0][1]

    def route_hops(self, origin: str) -> int:
        """Number of overlay hops a lookup takes (Chord's O(log n))."""
        return max(1, int(math.ceil(math.log2(len(self._sites)))))

    def _routed_lookup(self, origin_site: str, key: int, size_bytes: int, kind: str) -> str:
        """Route from origin to the key's owner; return the owner.

        Each overlay hop is a real message between (deterministically
        chosen) sites, so routing latency reflects geography even though
        placement ignores it -- exactly the mismatch the paper complains
        about.
        """
        owner = self.successor(key)
        hops = self.route_hops(origin_site)
        current = origin_site
        for hop in range(hops):
            if hop == hops - 1:
                nxt = owner
            else:
                nxt = self._sites[(self._sites.index(current) + hop + 1) % len(self._sites)]
            self.network.send(current, nxt, size_bytes, kind)
            current = nxt
        return owner

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        result = OperationResult()
        record = tuple_set.provenance
        pname = tuple_set.pname
        record_bytes = estimate_record_bytes(tuple_set)

        # Store the record itself at hash(pname).
        owner = self._routed_lookup(
            origin_site, _key(pname.digest), record_bytes, "dht-put-record"
        )
        self._records[owner][pname.digest] = record
        self._data_location[pname.digest] = owner
        result.add_site(owner)

        # One index entry per queriable attribute value the record carries.
        for attribute in self.indexed_attributes:
            value = record.get(attribute)
            if value is None:
                continue
            entry_key = _key(f"{attribute}={canonical_encode(value)}")
            owner = self._routed_lookup(
                origin_site, entry_key, POINTER_BYTES, "dht-put-index"
            )
            bucket = self._attr_entries[owner].setdefault(
                f"{attribute}={canonical_encode(value)}", set()
            )
            bucket.add(pname.digest)
            result.add_site(owner)

        # Reverse edges so descendant queries are answerable at the parent's node.
        for ancestor in record.ancestors:
            owner = self._routed_lookup(
                origin_site, _key(ancestor.digest), POINTER_BYTES, "dht-put-edge"
            )
            self._children.setdefault(ancestor.digest, set()).add(pname.digest)
            result.add_site(owner)

        result.pnames = [pname]
        self.published += 1
        # The ring node that received the record's put pushes the
        # notifications -- placement ignores geography, so dissemination
        # pays the same locality penalty the paper complains about.
        self._notify_subscribers(
            tuple_set, origin_site, result, source=self._data_location[pname.digest]
        )
        return result

    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        query = self._start_query(query)
        result = OperationResult()
        # Lineage conjuncts have no home in the ring's key space; resolve
        # them first with per-edge routed closure walks (the "support so
        # far nonexistent" cost the paper describes), then evaluate the
        # predicate against the collected reachability sets.
        oracle = (
            self._resolve_lineage(query.predicate, origin_site, result)
            if query.requires_lineage
            else None
        )
        equality = self._routable_equality(query)
        if equality is None:
            return self._flood_query(query, origin_site, result, oracle)

        attribute, value = equality
        entry_key = _key(f"{attribute}={canonical_encode(value)}")
        owner = self._routed_lookup(
            origin_site, entry_key, self.query_request_bytes, "dht-get-index"
        )
        digests = self._attr_entries[owner].get(f"{attribute}={canonical_encode(value)}", set())
        # Fetch each candidate record to evaluate the residual predicate.
        matches: List[PName] = []
        for digest in sorted(digests):
            pname = PName(digest)
            record_owner = self._routed_lookup(
                origin_site, _key(digest), POINTER_BYTES, "dht-get-record"
            )
            record = self._records[record_owner].get(digest)
            result.add_site(record_owner)
            if record is not None and query.predicate.matches(pname, record, oracle):
                matches.append(pname)
        result.rows_scanned += len(digests)
        self._trace_scan(
            owner,
            len(digests),
            len(matches),
            f"DHT index-entry probe on {attribute!r} + per-candidate record fetch",
        )
        result.add_site(owner)
        result.pnames = sorted(matches, key=lambda p: p.digest)
        if query.limit is not None:
            result.pnames = result.pnames[: query.limit]
        self.queries_run += 1
        return result

    def _flood_query(
        self,
        query: Query,
        origin_site: str,
        result: OperationResult,
        oracle: Optional["_WalkOracle"] = None,
    ) -> OperationResult:
        """No routable key: ask every node (the expensive fallback)."""
        result.notes.append("no routable attribute: flooded every ring node")

        def scan(site: str) -> List[PName]:
            local: List[PName] = []
            for digest, record in self._records[site].items():
                pname = PName(digest)
                if query.predicate.matches(pname, record, oracle):
                    local.append(pname)
            result.rows_scanned += len(self._records[site])
            self._trace_scan(
                site, len(self._records[site]), len(local), "DHT flood: scan of one node's records"
            )
            result.add_site(site)
            return local

        # Replies race back in parallel; the consumer waits for the slowest.
        matches = self._broadcast_gather(
            origin_site,
            self._sites,
            self.query_request_bytes,
            "dht-flood-query",
            "dht-flood-reply",
            scan,
        )
        result.pnames = sorted(set(matches), key=lambda p: p.digest)
        if query.limit is not None:
            result.pnames = result.pnames[: query.limit]
        self.queries_run += 1
        return result

    def _resolve_lineage(
        self, predicate: Predicate, origin_site: str, result: OperationResult
    ) -> "_WalkOracle":
        """Pre-compute the reachability sets the predicate will ask about.

        Each distinct ``DerivedFrom`` / ``AncestorOf`` focus costs one
        routed closure walk (one lookup per edge, each paying full
        O(log n) routing) inside the query's own trace, and is reported
        as a lineage access path in the per-query explain trace.
        """
        targets: List[Tuple[bool, PName]] = []
        _collect_lineage_targets(predicate, targets)
        down: Dict[str, Set[str]] = {}
        up: Dict[str, Set[str]] = {}
        for walk_up, focus in targets:
            bucket = up if walk_up else down
            if focus.digest in bucket:
                continue
            found = self._closure_walk(focus, origin_site, up=walk_up, result=result)
            bucket[focus.digest] = found
            direction = "ancestors" if walk_up else "descendants"
            self._query_explains.append(
                Explain(
                    site=origin_site,
                    path=(
                        f"DHT routed closure walk: {direction} of {focus.short} "
                        "(one routed lookup per edge)"
                    ),
                    path_kind="lineage-routed-walk",
                    estimated_rows=len(found),
                    actual_rows=len(found),
                    rows_scanned=len(found),
                    used_index=True,
                )
            )
        result.notes.append("lineage resolved by per-edge routed lookups")
        return _WalkOracle(down, up)

    def _routable_equality(self, query: Query) -> Optional[Tuple[str, object]]:
        """The first equality conjunct on an attribute the ring indexes: only those have entries to route to."""
        predicate = query.predicate
        parts = predicate.parts if isinstance(predicate, And) else (predicate,)
        for part in parts:
            if isinstance(part, AttributeEquals) and part.name in self.indexed_attributes:
                return part.name, part.value
        return None

    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        """Every edge traversal is a separate routed lookup: "so far nonexistent" support."""
        result = OperationResult()
        found = self._closure_walk(pname, origin_site, up=up, result=result)
        result.pnames = sorted((PName(digest) for digest in found), key=lambda p: p.digest)
        self.queries_run += 1
        return result

    def _closure_walk(
        self, pname: PName, origin_site: str, up: bool, result: OperationResult
    ) -> Set[str]:
        """Walk the closure one routed lookup per node; owners are noted on ``result``."""
        found: Set[str] = set()
        frontier: Set[str] = {pname.digest}
        while frontier:
            next_frontier: Set[str] = set()
            for digest in sorted(frontier):
                owner = self._routed_lookup(
                    origin_site, _key(digest), POINTER_BYTES, "dht-closure-lookup"
                )
                result.add_site(owner)
                if up:
                    record = self._records[owner].get(digest)
                    neighbours = (
                        [ancestor.digest for ancestor in record.ancestors] if record else []
                    )
                else:
                    neighbours = sorted(self._children.get(digest, set()))
                for neighbour in neighbours:
                    if neighbour not in found and neighbour != pname.digest:
                        next_frontier.add(neighbour)
            found |= next_frontier
            frontier = next_frontier
        return found

    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        result = OperationResult()
        owner = self._routed_lookup(
            origin_site, _key(pname.digest), LOCATE_REQUEST_BYTES, "dht-locate"
        )
        result.add_site(owner)
        if pname.digest in self._records[owner]:
            result.pnames = [pname]
        else:
            result.notes.append("unknown pname")
        return result

    # ------------------------------------------------------------------
    # Placement / scaling diagnostics (experiments E9 and E10)
    # ------------------------------------------------------------------
    def placement_distance_km(self, pname: PName, origin_site: str) -> float:
        """Distance from the producing site to where the DHT actually put the record."""
        owner = self._data_location.get(pname.digest)
        if owner is None:
            return 0.0
        return self.topology.distance_km(origin_site, owner)

    def ring_update_capacity(self) -> float:
        """Aggregate updates/second the ring can absorb."""
        return self.per_node_updates_per_second * len(self._sites)

    def updates_per_publish(self) -> int:
        """Index entries written per published tuple set (attribute fan-out)."""
        return 1 + len(self.indexed_attributes)

    def max_supported_updaters(self, publishes_per_updater_per_second: float) -> int:
        """How many concurrent updaters the ring supports before saturating."""
        if publishes_per_updater_per_second <= 0:
            raise ConfigurationError("publish rate must be positive")
        per_updater_load = publishes_per_updater_per_second * self.updates_per_publish()
        return int(self.ring_update_capacity() / per_updater_load)


def _collect_lineage_targets(
    predicate: Predicate, targets: List[Tuple[bool, PName]]
) -> None:
    """Gather every (walk-up?, focus) pair the predicate can ask about."""
    if isinstance(predicate, DerivedFrom):
        targets.append((False, predicate.ancestor))
    elif isinstance(predicate, AncestorOf):
        targets.append((True, predicate.descendant))
    elif isinstance(predicate, (And, Or)):
        for part in predicate.parts:
            _collect_lineage_targets(part, targets)
    elif isinstance(predicate, Not):
        _collect_lineage_targets(predicate.part, targets)


class _WalkOracle(LineageOracle):
    """A lineage oracle backed by pre-walked reachability sets.

    Lineage predicates only ever ask about their own focus node
    (``DerivedFrom(x)`` asks ``is_ancestor(x, candidate)``,
    ``AncestorOf(y)`` asks ``is_ancestor(candidate, y)``), so the sets
    collected by :meth:`DistributedHashTable._resolve_lineage` answer
    every probe the evaluation can make.
    """

    def __init__(self, down: Dict[str, Set[str]], up: Dict[str, Set[str]]) -> None:
        self._down = down
        self._up = up

    def is_ancestor(self, ancestor: PName, descendant: PName) -> bool:
        reachable = self._down.get(ancestor.digest)
        if reachable is not None:
            return descendant.digest in reachable
        reached_from = self._up.get(descendant.digest)
        if reached_from is not None:
            return ancestor.digest in reached_from
        return False


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import register_scheme  # noqa: E402


@register_scheme("dht")
def _connect_dht(spec):
    """``dht://?sites=32&index=city,domain`` -- a Chord-like ring over N sites."""
    from repro.api.client import ModelClient
    from repro.api.topologies import topology_from_spec

    model = DistributedHashTable(
        topology_from_spec(spec),
        indexed_attributes=spec.listing("index"),
        per_node_updates_per_second=spec.number("rate", 50.0),
    )
    return ModelClient(model, origin=spec.text("origin"))
