"""The soft-state Grid-services model (Section IV-B, third architecture).

"A third model, choosing availability over consistency, relies on
soft-state and a mostly stable network."  The paper's examples are the
Replica Location Service (RLS) -- "its metadata lookup service is
distributed, reducing update and query load, and it relies on periodic
updates to keep its soft-state from becoming stale" -- and the Storage
Resource Broker (SRB), which stores metadata as name-value pairs in
zones but whose "metadata model denies transitive closure".

The model:

* keeps data and full provenance at the producing site (data is "stored
  at the producers"), grouped into *zones*,
* maintains one soft-state index node per zone; producers push summaries
  of their new records to their zone index only every
  ``refresh_interval_seconds`` of simulated time, so the index lags
  reality -- queries between refreshes miss recent data (lost recall)
  and can return records whose data was since removed (lost precision),
* answers attribute queries from the zone indexes (cheap, parallel),
* **refuses transitive-closure queries** (:class:`UnsupportedQueryError`),
  reproducing the SRB limitation the paper calls out.

A simulated clock (:meth:`advance_time`) drives refresh; experiment E7
sweeps the refresh interval against the publish rate and reports
precision/recall.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.pass_store import PassStore
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import Predicate, Query
from repro.core.tupleset import TupleSet
from repro.distributed.base import (
    ArchitectureModel,
    OperationResult,
    SiteStores,
    estimate_record_bytes,
)
from repro.errors import ConfigurationError, UnknownEntityError, UnsupportedQueryError
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology

__all__ = ["SoftStateIndex"]

_SUMMARY_BYTES = 200  # a pushed index summary is smaller than the full record


class SoftStateIndex(ArchitectureModel):
    """RLS/SRB-style soft-state metadata service divided into zones.

    Parameters
    ----------
    zones:
        Mapping of zone name -> (index site, member producer sites).
        Every topology site must belong to exactly one zone.
    refresh_interval_seconds:
        Simulated time between a producer's pushes to its zone index.
    """

    name = "soft-state"
    supports_lineage = False
    requires_stable_hosts = True

    def __init__(
        self,
        topology: Topology,
        zones: Mapping[str, Tuple[str, Sequence[str]]],
        network: Optional[NetworkSimulator] = None,
        refresh_interval_seconds: float = 300.0,
    ) -> None:
        super().__init__(topology, network)
        if refresh_interval_seconds <= 0:
            raise ConfigurationError("refresh_interval_seconds must be positive")
        self.refresh_interval_seconds = refresh_interval_seconds
        self._zones: Dict[str, Tuple[str, List[str]]] = {}
        self._zone_of_site: Dict[str, str] = {}
        for zone, (index_site, members) in zones.items():
            if index_site not in topology:
                raise UnknownEntityError(f"zone index site {index_site!r} not in topology")
            member_list = list(members)
            for member in member_list:
                if member not in topology:
                    raise UnknownEntityError(f"zone member {member!r} not in topology")
                self._zone_of_site[member] = zone
            self._zones[zone] = (index_site, member_list)
        # Local authoritative stores (per producer) and per-zone index stores.
        self._stores = SiteStores(topology.site_names)
        self._zone_indexes: Dict[str, PassStore] = {
            zone: PassStore(site=index_site) for zone, (index_site, _) in self._zones.items()
        }
        # Records published but not yet pushed to the zone index.
        self._unpushed: Dict[str, List[ProvenanceRecord]] = {site: [] for site in topology.site_names}
        # Each producer refreshes on its own schedule; staggering the phases
        # (deterministically, by site name) mirrors real RLS deployments and
        # keeps refresh instants from accidentally lining up with workload
        # boundaries in experiments.
        self._last_refresh: Dict[str, float] = {
            site: -self._phase_offset(site) for site in topology.site_names
        }
        self._data_location: Dict[str, str] = {}
        self.clock_seconds = 0.0

    # ------------------------------------------------------------------
    # Zones and time
    # ------------------------------------------------------------------
    def _phase_offset(self, site: str) -> float:
        """Deterministic per-site refresh phase in [0, refresh_interval)."""
        import hashlib

        digest = hashlib.sha256(site.encode("utf-8")).hexdigest()
        fraction = int(digest[:8], 16) / 0xFFFFFFFF
        return fraction * self.refresh_interval_seconds

    def zone_of(self, site: str) -> str:
        """Which zone a producer site belongs to."""
        try:
            return self._zone_of_site[site]
        except KeyError:
            raise UnknownEntityError(f"site {site!r} belongs to no zone") from None

    def advance_time(self, seconds: float) -> int:
        """Advance the simulated clock, pushing due refreshes; returns pushes sent."""
        if seconds < 0:
            raise ConfigurationError("cannot advance time backwards")
        self.clock_seconds += seconds
        pushed = 0
        for site in sorted(self._unpushed):
            if not self._unpushed[site]:
                continue
            if self.clock_seconds - self._last_refresh[site] >= self.refresh_interval_seconds:
                pushed += self._refresh_site(site)
        return pushed

    def force_refresh(self) -> int:
        """Push every pending summary immediately (used to establish ground truth)."""
        pushed = 0
        for site in sorted(self._unpushed):
            if self._unpushed[site]:
                pushed += self._refresh_site(site)
        return pushed

    def _refresh_site(self, site: str) -> int:
        zone = self.zone_of(site)
        index_site, _ = self._zones[zone]
        pending = self._unpushed[site]
        for record in pending:
            self.network.send(site, index_site, _SUMMARY_BYTES, "soft-state-refresh")
            self._zone_indexes[zone].ingest_record(record)
        count = len(pending)
        self._unpushed[site] = []
        self._last_refresh[site] = self.clock_seconds
        return count

    def pending_count(self) -> int:
        """Records published but not yet visible in any zone index."""
        return sum(len(records) for records in self._unpushed.values())

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        result = OperationResult()
        record = tuple_set.provenance
        self._stores.store(origin_site).ingest_record(record)
        self._unpushed[origin_site].append(record)
        self._data_location[tuple_set.pname.digest] = origin_site
        self.network.send(
            origin_site, origin_site, estimate_record_bytes(tuple_set), "local-publish"
        )
        result.add_site(origin_site)
        result.pnames = [tuple_set.pname]
        self.published += 1
        # Notifications are producer-pushed immediately -- unlike the zone
        # *indexes*, which stay stale until the next soft-state refresh.
        # That split is the point: streaming dissemination is exactly what
        # the soft-state architecture is built for.
        self._notify_subscribers(tuple_set, origin_site, result)
        return result

    def remove(self, pname: PName) -> None:
        """Remove a data set at its producer.

        The zone index is *not* told until the next refresh: until then
        the index keeps advertising data that no longer exists, which is
        the precision loss experiment E7 measures.
        """
        site = self._data_location.get(pname.digest)
        if site is None:
            raise UnknownEntityError(f"unknown data set {pname}")
        self._stores.store(site).remove_data(pname)

    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        query = self._start_query(query)
        if query.requires_lineage:
            # The zone indexes only know *pushed* records, so closure over
            # them could silently be wrong; refuse like ancestors() does.
            raise UnsupportedQueryError(
                "the soft-state metadata model denies transitive closure (Section IV-B)"
            )
        result = OperationResult()
        # Zone indexes are queried in parallel; the slowest one gates.
        result.pnames = self._scatter_gather(
            query,
            origin_site,
            [
                (index_site, self._zone_indexes[zone])
                for zone, (index_site, _) in sorted(self._zones.items())
            ],
            result,
        )
        self.queries_run += 1
        return result

    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        raise UnsupportedQueryError(
            "the soft-state metadata model denies transitive closure (Section IV-B)"
        )

    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        result = OperationResult()
        zone = None
        site = self._data_location.get(pname.digest)
        if site is not None:
            zone = self.zone_of(site)
        # The consumer asks its own zone's index first, then others.
        order = sorted(self._zones, key=lambda name: 0 if name == zone else 1)
        for zone_name in order:
            index_site, _ = self._zones[zone_name]
            self._locate_round_trip(origin_site, index_site, result)
            if pname in self._zone_indexes[zone_name] and site is not None:
                if self._stores.store(site).is_removed(pname):
                    result.notes.append("stale index entry: data was removed")
                result.add_site(site)
                result.pnames = [pname]
                return result
        result.notes.append("not found in any zone index (possibly not yet refreshed)")
        return result


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import register_scheme  # noqa: E402


@register_scheme("soft-state")
def _connect_soft_state(spec):
    """``soft-state://?refresh=300&zones=2`` -- RLS/SRB-style zoned soft state.

    Storage sites are split round-robin-by-halves into ``zones`` zones,
    each indexed at its first member site (mirroring the evaluation
    harness's standard scenario).
    """
    from repro.api.client import ModelClient
    from repro.api.topologies import topology_from_spec
    from repro.errors import ConfigurationError

    topology = topology_from_spec(spec)
    storage = [site.name for site in topology.sites(kind="storage")]
    zone_count = spec.integer("zones", 2)
    if zone_count < 1:
        raise ConfigurationError("zones must be at least 1")
    zone_count = min(zone_count, len(storage))
    per_zone = max(1, len(storage) // zone_count)
    zones = {}
    for index in range(zone_count):
        members = storage[index * per_zone:(index + 1) * per_zone]
        if index == zone_count - 1:
            members = storage[index * per_zone:]
        if not members:
            continue
        zones[f"zone-{index}"] = (members[0], members)
    model = SoftStateIndex(
        topology,
        zones=zones,
        refresh_interval_seconds=spec.number("refresh", 300.0),
    )
    return ModelClient(model, origin=spec.text("origin"))
