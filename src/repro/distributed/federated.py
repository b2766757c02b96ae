"""The federated-database model (Section IV-B, second architecture).

"A second model, the federated database, uses multiple autonomous
database systems, each with its own specific interface, transactions,
concurrency, and schema.  A federated system does provide the illusion
of a unified schema, but the fact that the components are truly disjoint
systems may lead to slow access."

The model gives every site an autonomous store *with its own schema*:
each site renames a configurable subset of attribute names (traffic
sites say ``city``, weather sites say ``region``, one site may call the
time window ``period_begin`` ...).  A mediator at the querying site
translates the global query into each site's dialect, pays a translation
overhead per site, forwards the query, and merges the answers back into
the global vocabulary.

Recursive queries are possible but expensive: the mediator iterates the
same level-by-level expansion as the distributed database, except that
it does not know which site holds a record's lineage, so each step asks
*every* site ("the components are truly disjoint systems").
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import (
    And,
    AttributeContains,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    NearLocation,
    Not,
    Or,
    Predicate,
    Query,
)
from repro.core.tupleset import TupleSet
from repro.distributed.base import (
    LOCATE_REQUEST_BYTES,
    ArchitectureModel,
    OperationResult,
    SiteStores,
    estimate_record_bytes,
)
from repro.errors import UnknownEntityError
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology

__all__ = ["FederatedDatabase"]


def _rename_predicate(predicate: Predicate, mapping: Mapping[str, str]) -> Predicate:
    """Rewrite attribute names in a predicate according to a site's schema."""
    if isinstance(predicate, AttributeEquals):
        return AttributeEquals(mapping.get(predicate.name, predicate.name), predicate.value)
    if isinstance(predicate, AttributeRange):
        return AttributeRange(
            mapping.get(predicate.name, predicate.name),
            predicate.low,
            predicate.high,
            predicate.include_low,
            predicate.include_high,
        )
    if isinstance(predicate, AttributeContains):
        return AttributeContains(mapping.get(predicate.name, predicate.name), predicate.needle)
    if isinstance(predicate, AttributeIn):
        return AttributeIn(mapping.get(predicate.name, predicate.name), predicate.values)
    if isinstance(predicate, AttributeExists):
        return AttributeExists(mapping.get(predicate.name, predicate.name))
    if isinstance(predicate, NearLocation):
        return NearLocation(
            mapping.get(predicate.name, predicate.name), predicate.centre, predicate.radius_km
        )
    if isinstance(predicate, And):
        return And(tuple(_rename_predicate(part, mapping) for part in predicate.parts))
    if isinstance(predicate, Or):
        return Or(tuple(_rename_predicate(part, mapping) for part in predicate.parts))
    if isinstance(predicate, Not):
        return Not(_rename_predicate(predicate.part, mapping))
    # Lineage and agent predicates carry no attribute names to rename.
    return predicate


def _rename_record(record: ProvenanceRecord, mapping: Mapping[str, str]) -> ProvenanceRecord:
    """Store-side schema translation applied when a record is ingested at a site."""
    if not mapping:
        return record
    renamed = {mapping.get(name, name): value for name, value in record.attributes.items()}
    return ProvenanceRecord(
        attributes=renamed,
        ancestors=record.ancestors,
        agents=record.agents,
        annotations=record.annotations,
    )


class FederatedDatabase(ArchitectureModel):
    """Autonomous per-site databases behind a mediating query translator.

    Parameters
    ----------
    site_schemas:
        Mapping of site name -> {global attribute name: local name}.
        Sites absent from the mapping use the global vocabulary as-is.
    translation_ms:
        Mediator overhead per site per query (schema translation,
        driver/connector overhead) -- the "slow access" cost.
    """

    name = "federated"
    supports_lineage = True
    requires_stable_hosts = True
    query_request_bytes = 320  # translated queries are wordier

    def __init__(
        self,
        topology: Topology,
        network: Optional[NetworkSimulator] = None,
        site_schemas: Optional[Mapping[str, Mapping[str, str]]] = None,
        translation_ms: float = 1.5,
    ) -> None:
        super().__init__(topology, network)
        self._sites = topology.site_names
        self._stores = SiteStores(self._sites)
        self._schemas: Dict[str, Dict[str, str]] = {
            site: dict((site_schemas or {}).get(site, {})) for site in self._sites
        }
        self.translation_ms = translation_ms
        self._data_location: Dict[str, str] = {}

    def schema_for(self, site: str) -> Dict[str, str]:
        """The attribute-renaming map a site applies to global names."""
        if site not in self._schemas:
            raise UnknownEntityError(f"unknown site {site!r}")
        return dict(self._schemas[site])

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def publish(self, tuple_set: TupleSet, origin_site: str) -> OperationResult:
        """Data and provenance stay at the producing site's autonomous store.

        The record is stored under its global identity (the PName must
        stay stable across the federation or lineage would fragment); the
        site's schema dialect shows up on the query path, where the
        mediator pays a translation cost per site.
        """
        result = OperationResult()
        self._stores.store(origin_site).ingest_record(tuple_set.provenance)
        self._data_location[tuple_set.pname.digest] = origin_site
        # Local write: charged as a loopback message so resource accounting
        # still sees it, plus nothing crosses the wide area.
        self.network.send(
            origin_site, origin_site, estimate_record_bytes(tuple_set), "local-publish"
        )
        result.add_site(origin_site)
        result.pnames = [tuple_set.pname]
        self.published += 1
        # Autonomous sites push their own notifications from where the
        # data lives (no mediator on the dissemination path).
        self._notify_subscribers(tuple_set, origin_site, result)
        return result

    def query(self, query: Query | Predicate, origin_site: str) -> OperationResult:
        query = self._start_query(query)
        result = OperationResult()
        # The mediator translates the query into each site's dialect (a
        # per-site latency cost paid serially at the mediator) before
        # fanning out; the sites' wrappers map their local names back
        # onto the shared records, so results are the same as executing
        # the global query -- federation's penalty is slow access, not
        # wrong answers.
        for site in self._sites:
            _ = _rename_predicate(query.predicate, self._schemas[site])
        self.network.local_compute(self.translation_ms * len(self._sites), origin_site)
        # Transfer and evaluation happen in parallel across sites.
        result.pnames = self._scatter_gather(
            query,
            origin_site,
            self._stores.items(),
            result,
            request_kind="federated-query",
            reply_kind="federated-response",
        )
        self.queries_run += 1
        return result

    def _lineage(self, pname: PName, origin_site: str, up: bool) -> OperationResult:
        """Level-by-level expansion, asking every autonomous site each round."""
        return self._broadcast_closure(
            pname,
            origin_site,
            up,
            self._stores,
            "federated-closure-step",
            "federated-closure-reply",
            round_compute_ms=self.translation_ms * len(self._sites),
        )

    def locate(self, pname: PName, origin_site: str) -> OperationResult:
        result = OperationResult()
        site = self._data_location.get(pname.digest)
        if site is None:
            # The mediator has to ask everyone.
            self.network.broadcast(origin_site, self._sites, LOCATE_REQUEST_BYTES, "locate")
            result.notes.append("unknown pname")
            return result
        self._locate_round_trip(origin_site, site, result)
        result.pnames = [pname]
        return result


# ----------------------------------------------------------------------
# PassClient façade registration (repro.api)
# ----------------------------------------------------------------------
from repro.api.registry import register_scheme  # noqa: E402


@register_scheme("federated")
def _connect_federated(spec):
    """``federated://?translation=1.5`` -- autonomous per-site databases behind a mediator."""
    from repro.api.client import ModelClient
    from repro.api.topologies import topology_from_spec

    model = FederatedDatabase(
        topology_from_spec(spec),
        translation_ms=spec.number("translation", 1.5),
    )
    return ModelClient(model, origin=spec.text("origin"))
