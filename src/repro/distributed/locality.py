"""The paper's own position: locale-aware provenance-aware storage.

Section III-D: "Storage should be near the sensors ...  Boston traffic
data belongs in Boston, not in Singapore or even Seattle", and Section V
sketches the system: local PASS installations that can be merged "into
single globally searchable data archives" with "distributed naming and
indexing schemes, and support for distributed queries".

:class:`LocaleAwarePass` models that design:

* every tuple set is stored, with its full provenance, at the storage
  site nearest to where it was produced (or at the producing site
  itself, when it is a storage site);
* each site runs a complete local :class:`~repro.core.pass_store.PassStore`
  (attribute indexes *and* closure support), so queries about local data
  -- the common case the paper argues for -- never leave the site;
* a lightweight global catalogue maps each attribute name to the sites
  that have ever published a value for it, so a distributed query is
  forwarded only to the sites that could possibly answer it rather than
  broadcast everywhere;
* lineage queries start at the site holding the focus record and follow
  cross-site references only when the lineage actually crosses sites.

This is the model experiments E10 and E12 hold up against the other
architectures: it should win on locality and resource consumption while
matching the centralized model on query capability.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.attributes import GeoPoint
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
from repro.errors import UnknownEntityError
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology

__all__ = ["LocaleAwarePass"]

_CATALOGUE_BYTES = 64


class LocaleAwarePass(ArchitectureModel):
    """Federated local PASS stores with locality-aware placement and routing."""

    name = "locale-aware-pass"
    supports_lineage = True
    requires_stable_hosts = True

    def __init__(self, topology: Topology, network: Optional[NetworkSimulator] = None) -> None:
        super().__init__(topology, network)
        self._sites = topology.site_names
        self._stores = SiteStores(self._sites)
        # Global catalogue: attribute name -> sites holding records with it.
        # Kept small (names only, no values) so keeping it replicated
        # everywhere is cheap; updates are piggybacked on publishes.
        self._catalogue: Dict[str, Set[str]] = {}
        self._home: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def placement_site(self, tuple_set: TupleSet, origin_site: str) -> str:
        """Where a tuple set belongs: the storage site nearest its origin."""
        location = tuple_set.provenance.get("location")
        if isinstance(location, GeoPoint):
            return self.topology.nearest_site(location).name
        return origin_site

    def home_of(self, pname: PName) -> str:
        """The site holding a record's readings and authoritative provenance."""
        try:
            return self._home[pname.digest]
        except KeyError:
            raise UnknownEntityError(f"unknown data set {pname}") from None

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        result = OperationResult()
        home = self.placement_site(tuple_set, origin_site)
        record_bytes = estimate_record_bytes(tuple_set)
        if home == origin_site:
            self.network.send(origin_site, home, record_bytes, "local-publish")
        else:
            self.network.send(origin_site, home, record_bytes, "nearby-publish")
            self.network.send(home, origin_site, 64, "publish-ack")
        result.add_site(home)
        self._stores.store(home).ingest(tuple_set)
        self._home[tuple_set.pname.digest] = home

        # Cross-site lineage references: when this data set derives from data
        # homed elsewhere, tell the ancestor's home about the new child (a
        # metadata-only record) so forward (descendant/taint) queries starting
        # there can find it.  This is the "cross-references among files" cost
        # Section V warns about, paid once per cross-site edge.
        for ancestor in tuple_set.provenance.ancestors:
            ancestor_home = self._home.get(ancestor.digest)
            if ancestor_home is not None and ancestor_home != home:
                self.network.send(
                    home, ancestor_home, record_bytes, "cross-site-edge"
                )
                self._stores.store(ancestor_home).ingest_record(tuple_set.provenance)
                result.add_site(ancestor_home)

        # Catalogue maintenance: announce *new* attribute names only.
        new_names = [
            name
            for name in tuple_set.provenance.attributes
            if home not in self._catalogue.get(name, set())
        ]
        if new_names:
            others = [site for site in self._sites if site != home]
            if others:
                self.network.broadcast(
                    home, others, _CATALOGUE_BYTES, "catalogue-update"
                )
            for name in new_names:
                self._catalogue.setdefault(name, set()).add(home)

        result.pnames = [tuple_set.pname]
        self.published += 1
        # The home (placement) site holds the committed record and pushes
        # the notifications; locale-aware placement keeps them short-haul.
        self._notify_subscribers(tuple_set, origin_site, result, source=home)
        return result

    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        query = self._start_query(query)
        result = OperationResult()
        targets = self._route(query, origin_site)
        result.pnames = self._scatter_gather(
            query, origin_site, [(site, self._stores.store(site)) for site in targets], result
        )
        self.queries_run += 1
        return result

    def _route(self, query: Query, origin_site: str) -> List[str]:
        """Sites that could answer: intersection of catalogue entries.

        A query whose attributes have never been published anywhere still
        has to ask the local site (cheap) to return an empty answer.
        """
        referenced = query.attributes_referenced()
        candidate_sets = [
            self._catalogue[name] for name in referenced if name in self._catalogue
        ]
        if not candidate_sets:
            if referenced:
                return [origin_site]
            return list(self._sites)
        targets: Set[str] = set.union(*candidate_sets)
        return sorted(targets)

    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        """Start at the focus record's home; hop sites only when lineage does."""
        result = OperationResult()
        home = self._home.get(pname.digest)
        if home is None:
            result.notes.append("unknown pname")
            return result
        self.network.send(origin_site, home, self.query_request_bytes, "lineage-query")

        found: Set[PName] = set()
        visited_sites: Set[str] = set()
        frontier: Set[PName] = {pname}
        current_site = home
        while frontier:
            store = self._stores.store(current_site)
            visited_sites.add(current_site)
            next_frontier: Set[PName] = set()
            remote: Set[PName] = set()
            for node in frontier:
                if node in store.graph:
                    step = (
                        store.closure.ancestors(node) if up else store.closure.descendants(node)
                    )
                    for neighbour in step:
                        if neighbour.digest != pname.digest:
                            found.add(neighbour)
                        # A neighbour whose record is not held locally lives
                        # at another site; chase it there.
                        if neighbour not in store and neighbour.digest in self._home:
                            remote.add(neighbour)
                else:
                    remote.add(node)
            # Chase at most one remote site per round (nearest first), which
            # keeps the hop count proportional to how often lineage actually
            # crosses sites.
            remote_by_site: Dict[str, Set[PName]] = {}
            for node in remote:
                site = self._home.get(node.digest)
                if site is not None and site not in visited_sites:
                    remote_by_site.setdefault(site, set()).add(node)
            if not remote_by_site:
                break
            next_site = min(
                remote_by_site,
                key=lambda site: self.topology.latency_ms(current_site, site),
            )
            self.network.send(current_site, next_site, self.query_request_bytes, "lineage-hop")
            self.network.send(
                next_site, origin_site, POINTER_BYTES * max(1, len(found)), "lineage-reply"
            )
            frontier = remote_by_site[next_site]
            current_site = next_site

        self.network.send(
            home, origin_site, POINTER_BYTES * max(1, len(found)), "lineage-response"
        )
        result.pnames = sorted(found, key=lambda p: p.digest)
        result.sites_contacted = sorted(visited_sites)
        self.queries_run += 1
        return result

    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        result = OperationResult()
        home = self._home.get(pname.digest)
        if home is None:
            result.notes.append("unknown pname")
            return result
        self._locate_round_trip(origin_site, home, result)
        result.pnames = [pname]
        return result

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def placement_distance_km(self, pname: PName, origin_site: str) -> float:
        """Distance between the producing site and where the data was placed."""
        home = self.home_of(pname)
        return self.topology.distance_km(origin_site, home)


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import register_scheme  # noqa: E402


@register_scheme("locale-aware-pass", "locale")
def _connect_locale_aware(spec):
    """``locale-aware-pass://?cities=london,boston`` -- the paper's proposed design."""
    from repro.api.client import ModelClient
    from repro.api.topologies import topology_from_spec

    model = LocaleAwarePass(topology_from_spec(spec))
    return ModelClient(model, origin=spec.text("origin"))
