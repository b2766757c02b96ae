"""The hierarchical filename/URL model (Section IV-B, fourth architecture).

"Organize the material into a hierarchical namespace and then use the
hierarchy to partition the data across a distributed network of servers.
...  Hierarchical naming systems are fundamentally limited by the need
to choose a significance ordering for the attributes.  This is a bad fit
for any problem where no natural ordering exists ...  Choosing either
one as most significant will make querying on the other difficult."

The model is given a *significance ordering* -- a list of attribute
names -- and assigns each published record a path like
``/<attr1>/<attr2>/.../<pname>``.  The first path component determines
which server owns the record.  The consequences the paper predicts fall
straight out:

* a query constraining the most-significant attribute routes to exactly
  one server,
* a query constraining only a less-significant attribute cannot be
  routed and must be broadcast to every server (and, within a server,
  scanned),
* attributes outside the ordering are not represented in the namespace
  at all; queries on them are also full broadcasts,
* recursive lineage queries have no home in a pure namespace; the model
  supports them only by broadcasting level-by-level, and experiment E8
  charges that cost.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.core.attributes import canonical_encode
from repro.core.naming import FilenameConvention
from repro.core.provenance import PName
from repro.core.query import And, AttributeEquals, Predicate, Query
from repro.core.tupleset import TupleSet
from repro.distributed.base import (
    ArchitectureModel,
    OperationResult,
    SiteStores,
    estimate_record_bytes,
)
from repro.errors import ConfigurationError
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology

__all__ = ["HierarchicalNamespace"]


class HierarchicalNamespace(ArchitectureModel):
    """A namespace partitioned across servers by its most significant attribute.

    Parameters
    ----------
    significance_order:
        Attribute names, most significant first.  The first attribute's
        value chooses the owning server (hashed onto the site list).
    """

    name = "hierarchical"
    supports_lineage = True
    requires_stable_hosts = True

    def __init__(
        self,
        topology: Topology,
        significance_order: Sequence[str],
        network: Optional[NetworkSimulator] = None,
    ) -> None:
        super().__init__(topology, network)
        if not significance_order:
            raise ConfigurationError("significance_order must list at least one attribute")
        self.significance_order = list(significance_order)
        self.convention = FilenameConvention(self.significance_order, separator="/")
        self._sites = topology.site_names
        self._stores = SiteStores(self._sites)
        # top-level path component -> owning server
        self._partition_of: Dict[str, str] = {}
        self._paths: Dict[str, str] = {}  # pname digest -> full path
        self._component_of: Dict[str, str] = {}  # pname digest -> top-level component
        self._data_location: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Namespace mechanics
    # ------------------------------------------------------------------
    def path_for(self, tuple_set: TupleSet) -> str:
        """The namespace path assigned to a tuple set."""
        prefix = self.convention.name(tuple_set.provenance)
        return f"/{prefix}/{tuple_set.pname.short}"

    def server_for_component(self, component: str) -> str:
        """The server owning a top-level path component (stable assignment)."""
        if component not in self._partition_of:
            digest = hashlib.sha256(component.encode("utf-8")).hexdigest()
            index = int(digest[:8], 16) % len(self._sites)
            self._partition_of[component] = self._sites[index]
        return self._partition_of[component]

    def _top_component(self, tuple_set: TupleSet) -> str:
        value = tuple_set.provenance.get(self.significance_order[0])
        return canonical_encode(value) if value is not None else "unknown"

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        result = OperationResult()
        component = self._top_component(tuple_set)
        server = self.server_for_component(component)
        record_bytes = estimate_record_bytes(tuple_set)
        self.network.send(origin_site, server, record_bytes, "namespace-publish")
        self.network.send(server, origin_site, 64, "namespace-ack")
        self._stores.store(server).ingest_record(tuple_set.provenance)
        self._paths[tuple_set.pname.digest] = self.path_for(tuple_set)
        self._component_of[tuple_set.pname.digest] = component
        self._data_location[tuple_set.pname.digest] = origin_site
        result.add_site(server)
        result.pnames = [tuple_set.pname]
        self.published += 1
        # The namespace server owning the path component disseminates.
        self._notify_subscribers(tuple_set, origin_site, result, source=server)
        return result

    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        query = self._start_query(query)
        result = OperationResult()
        targets = self._route(query)
        result.pnames = self._scatter_gather(
            query, origin_site, [(server, self._stores.store(server)) for server in targets], result
        )
        if len(targets) == len(self._sites):
            result.notes.append("non-primary attribute: broadcast to all servers")
        self.queries_run += 1
        return result

    def _route(self, query: Query) -> List[str]:
        """Which servers must be consulted for this query.

        Only an equality constraint on the *most significant* attribute
        can be routed; anything else touches every server.
        """
        primary = self.significance_order[0]
        predicate = query.predicate
        parts: List[Predicate]
        if isinstance(predicate, And):
            parts = list(predicate.parts)
        else:
            parts = [predicate]
        for part in parts:
            if isinstance(part, AttributeEquals) and part.name == primary:
                component = canonical_encode(part.value)
                return [self.server_for_component(component)]
        return list(self._sites)

    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        """Namespace servers hold no lineage index; expand by broadcasting each level."""
        return self._broadcast_closure(
            pname,
            origin_site,
            up,
            self._stores,
            "namespace-closure-step",
            "namespace-closure-reply",
        )

    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        result = OperationResult()
        component = self._component_of.get(pname.digest)
        if component is None:
            result.notes.append("unknown pname")
            return result
        server = self.server_for_component(component)
        self._locate_round_trip(origin_site, server, result)
        site = self._data_location.get(pname.digest)
        if site is not None:
            result.add_site(site)
            result.pnames = [pname]
        return result


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import register_scheme  # noqa: E402


@register_scheme("hierarchical")
def _connect_hierarchical(spec):
    """``hierarchical://?order=city,domain,window_start`` -- a partitioned namespace."""
    from repro.api.client import ModelClient
    from repro.api.topologies import topology_from_spec

    model = HierarchicalNamespace(
        topology_from_spec(spec),
        significance_order=spec.listing("order", ["city", "domain", "window_start"]),
    )
    return ModelClient(model, origin=spec.text("origin"))
