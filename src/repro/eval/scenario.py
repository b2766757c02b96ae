"""Standard evaluation scenario shared by the experiments.

Every architecture comparison needs the same scaffolding: a wide-area
topology with storage sites in the cities the workloads use plus a
central warehouse, a way to build every architecture model over that
topology, and helpers to publish a workload into a model and to
establish a ground-truth oracle for result-quality scoring.  Keeping it
in one place means each experiment (and each benchmark file) stays short
and the models are always compared under identical conditions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import connect
from repro.api.client import PassClient, wrap
from repro.core.attributes import GeoPoint
from repro.core.pass_store import PassStore
from repro.core.provenance import PName
from repro.core.tupleset import TupleSet
from repro.distributed import (
    ArchitectureModel,
    CentralizedWarehouse,
    DistributedDatabase,
    DistributedHashTable,
    FederatedDatabase,
    HierarchicalNamespace,
    LocaleAwarePass,
    SoftStateIndex,
)
from repro.net import Site, Topology
from repro.sensors.workloads import CITY_CENTRES

__all__ = [
    "standard_topology",
    "build_all_models",
    "build_all_clients",
    "origin_site_for",
    "publish_all",
    "ground_truth_store",
    "MODEL_NAMES",
]

#: Names of the sites the standard topology creates for each city.
def _site_name(city: str) -> str:
    return f"{city}-site"


#: The model names the harness builds, in report order.
MODEL_NAMES = [
    "centralized",
    "distributed-db",
    "federated",
    "soft-state",
    "hierarchical",
    "dht",
    "locale-aware-pass",
]


def standard_topology(
    cities: Sequence[str] = ("london", "boston", "seattle", "tokyo"),
    warehouse_location: GeoPoint = GeoPoint(41.0, -87.0),
) -> Topology:
    """A topology with one storage site per city plus a central warehouse.

    The warehouse sits in the middle of North America -- far from London
    and Tokyo -- which is exactly the geometry that makes "ship all the
    metadata to one place" expensive for a worldwide sensor federation.
    """
    topology = Topology()
    for city in cities:
        if city not in CITY_CENTRES:
            raise ValueError(f"unknown city {city!r}; known: {sorted(CITY_CENTRES)}")
        topology.add_site(Site(_site_name(city), CITY_CENTRES[city], kind="storage"))
    topology.add_site(Site("warehouse", warehouse_location, kind="warehouse"))
    return topology


def build_all_models(
    topology: Topology,
    refresh_interval_seconds: float = 300.0,
    significance_order: Sequence[str] = ("city", "domain", "window_start"),
) -> Dict[str, ArchitectureModel]:
    """Instantiate every Section IV architecture model over ``topology``."""
    storage_sites = [site.name for site in topology.sites(kind="storage")]
    # Soft-state zones: split the storage sites into two zones, indexes at
    # the first site of each half (mirrors RLS deployments per continent).
    half = max(1, len(storage_sites) // 2)
    zones = {
        "zone-a": (storage_sites[0], storage_sites[:half]),
        "zone-b": (storage_sites[half % len(storage_sites)], storage_sites[half:] or storage_sites[:1]),
    }
    models: Dict[str, ArchitectureModel] = {
        "centralized": CentralizedWarehouse(topology, warehouse_site="warehouse"),
        "distributed-db": DistributedDatabase(topology),
        "federated": FederatedDatabase(topology),
        "soft-state": SoftStateIndex(
            topology, zones=zones, refresh_interval_seconds=refresh_interval_seconds
        ),
        "hierarchical": HierarchicalNamespace(topology, significance_order=significance_order),
        "dht": DistributedHashTable(topology),
        "locale-aware-pass": LocaleAwarePass(topology),
    }
    return models


def build_all_clients(
    topology: Topology,
    refresh_interval_seconds: float = 300.0,
    significance_order: Sequence[str] = ("city", "domain", "window_start"),
) -> Dict[str, PassClient]:
    """Every architecture model behind the unified :class:`PassClient` façade.

    Same construction as :func:`build_all_models`, wrapped so consumers
    can drive all targets (and the local stores from ``connect()``)
    through one protocol.
    """
    models = build_all_models(
        topology,
        refresh_interval_seconds=refresh_interval_seconds,
        significance_order=significance_order,
    )
    return {name: wrap(model) for name, model in models.items()}


def origin_site_for(tuple_set: TupleSet, topology: Topology) -> str:
    """The storage site where a tuple set is produced (nearest to its location)."""
    location = tuple_set.provenance.get("location")
    if isinstance(location, GeoPoint):
        return topology.nearest_site(location, kind="storage").name
    storage = topology.sites(kind="storage")
    return storage[0].name


def publish_all(
    model: "ArchitectureModel | PassClient",
    tuple_sets: Sequence[TupleSet],
    topology: Topology,
    origin_fn: Optional[Callable[[TupleSet], str]] = None,
) -> List[Tuple[PName, str, float, int, int]]:
    """Publish every tuple set into ``model``; return per-publish cost samples.

    ``model`` may be a bare architecture model or an already-wrapped
    client; either way publication runs through the PassClient façade.
    Each returned tuple is ``(pname, origin_site, latency_ms, messages,
    bytes)`` so experiments can aggregate however they like.
    """
    client = wrap(model)
    samples = []
    for tuple_set in tuple_sets:
        origin = origin_fn(tuple_set) if origin_fn else origin_site_for(tuple_set, topology)
        result = client.publish(tuple_set, origin=origin)
        cost = result.cost
        samples.append((tuple_set.pname, origin, cost.latency_ms, cost.messages, cost.bytes))
    return samples


def ground_truth_store(tuple_sets: Sequence[TupleSet]) -> PassStore:
    """A single local PASS holding everything: the oracle for precision/recall."""
    client = connect("memory://")
    client.publish_many(tuple_sets)
    return client.store

