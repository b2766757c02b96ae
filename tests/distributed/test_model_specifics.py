"""Model-specific behaviour: the weaknesses Section IV attributes to each."""

from __future__ import annotations

import random

import pytest

from repro.core import AttributeEquals, AttributeRange, GeoPoint, Query, Timestamp
from repro.distributed import (
    CentralizedWarehouse,
    DistributedDatabase,
    DistributedHashTable,
    FederatedDatabase,
    HierarchicalNamespace,
    LocaleAwarePass,
    SoftStateIndex,
)
from repro.distributed.federated import _rename_predicate, _rename_record
from repro.errors import ConfigurationError, UnknownEntityError, UnsupportedQueryError
from repro.eval.scenario import origin_site_for, publish_all, standard_topology
from repro.sensors.workloads import TrafficWorkload


@pytest.fixture(scope="module")
def topology():
    return standard_topology()


@pytest.fixture(scope="module")
def traffic():
    workload = TrafficWorkload(seed=51, cities=("london", "boston"), stations_per_city=2)
    raw, derived = workload.all_sets(hours=1.0)
    return raw, derived


class TestCentralized:
    def test_unknown_warehouse_site_rejected(self, topology):
        with pytest.raises(UnknownEntityError):
            CentralizedWarehouse(topology, warehouse_site="nowhere")

    def test_publish_latency_grows_past_capacity(self, topology, traffic):
        raw, derived = traffic
        below = CentralizedWarehouse(topology, "warehouse", max_updates_per_second=1000.0)
        below.set_offered_update_rate(500.0)
        above = CentralizedWarehouse(topology, "warehouse", max_updates_per_second=1000.0)
        above.set_offered_update_rate(4000.0)
        slow = [below.publish(ts, "london-site").latency_ms for ts in raw]
        fast = [above.publish(ts, "london-site").latency_ms for ts in raw]
        assert sum(fast) > sum(slow)
        # And the overload latency keeps growing as the backlog builds.
        assert fast[-1] > fast[0]

    def test_break_links_creates_dangling_locates(self, topology, traffic):
        raw, derived = traffic
        model = CentralizedWarehouse(topology, "warehouse")
        publish_all(model, raw, topology)
        assert model.dangling_fraction() == 0.0
        broken = model.break_links(0.5, rng=random.Random(1))
        assert broken > 0
        dangles = sum(
            1
            for ts in raw
            if "dangling link" in model.locate(ts.pname, "boston-site").notes
        )
        assert dangles == broken

    def test_locate_unknown_pname(self, topology, traffic):
        raw, _ = traffic
        model = CentralizedWarehouse(topology, "warehouse")
        answer = model.locate(raw[0].pname, "boston-site")
        assert "unknown pname" in answer.notes


class TestDistributedDatabase:
    def test_publish_uses_two_phase_commit_fanout(self, topology, traffic):
        raw, derived = traffic
        model = DistributedDatabase(topology)
        raw_cost = model.publish(raw[0], "london-site")
        # Derived sets have ancestors on other partitions -> more participants.
        publish_all(model, raw[1:], topology)
        derived_cost = model.publish(derived[0], "london-site")
        assert raw_cost.messages >= 3
        assert derived_cost.messages >= raw_cost.messages

    def test_partitioning_is_deterministic(self, topology, traffic):
        raw, _ = traffic
        model = DistributedDatabase(topology)
        assert model.partition_for(raw[0].pname) == model.partition_for(raw[0].pname)

    def test_closure_rounds_grow_with_depth(self, topology, traffic):
        raw, derived = traffic
        model = DistributedDatabase(topology)
        publish_all(model, raw + derived, topology)
        shallow = model.ancestors(derived[0].pname, "london-site")
        deep = model.ancestors(derived[-1].pname, "london-site")

        def rounds(result):
            return int(next(n.split(":")[1] for n in result.notes if "rounds" in n))

        assert rounds(deep) >= rounds(shallow) >= 1


class TestFederated:
    def test_schema_translation_helpers(self):
        mapping = {"city": "municipality", "window_start": "period_begin"}
        predicate = AttributeEquals("city", "london") & AttributeRange(
            "window_start", low=Timestamp(0.0)
        )
        renamed = _rename_predicate(predicate, mapping)
        names = renamed.attributes_referenced()
        assert "municipality" in names and "period_begin" in names
        assert "city" not in names

    def test_record_translation(self, traffic):
        raw, _ = traffic
        mapping = {"city": "municipality"}
        renamed = _rename_record(raw[0].provenance, mapping)
        assert renamed.get("municipality") == raw[0].provenance.get("city")
        assert renamed.get("city") is None

    def test_query_pays_translation_overhead(self, topology, traffic):
        raw, derived = traffic
        fast = FederatedDatabase(topology, translation_ms=0.0)
        slow = FederatedDatabase(topology, translation_ms=10.0)
        for model in (fast, slow):
            publish_all(model, raw + derived, topology)
        query = Query(AttributeEquals("city", "london"))
        assert (
            slow.query(query, "london-site").latency_ms
            > fast.query(query, "london-site").latency_ms
        )

    def test_publish_is_local(self, topology, traffic):
        raw, _ = traffic
        model = FederatedDatabase(topology)
        cost = model.publish(raw[0], "london-site")
        assert cost.sites_contacted == ["london-site"]

    def test_schema_for_unknown_site(self, topology):
        model = FederatedDatabase(topology)
        with pytest.raises(UnknownEntityError):
            model.schema_for("nowhere")


class TestSoftState:
    def _zones(self, topology):
        sites = [s.name for s in topology.sites(kind="storage")]
        return {"a": (sites[0], sites[:2]), "b": (sites[2], sites[2:])}

    def test_configuration_validation(self, topology):
        with pytest.raises(ConfigurationError):
            SoftStateIndex(topology, zones=self._zones(topology), refresh_interval_seconds=0.0)
        with pytest.raises(UnknownEntityError):
            SoftStateIndex(topology, zones={"a": ("nowhere", ["london-site"])})

    def test_unrefreshed_publishes_are_invisible(self, topology, traffic):
        raw, _ = traffic
        model = SoftStateIndex(topology, zones=self._zones(topology), refresh_interval_seconds=600.0)
        for tuple_set in raw:
            model.publish(tuple_set, origin_site_for(tuple_set, topology))
        query = Query(AttributeEquals("domain", "traffic"))
        assert model.query(query, "london-site").pnames == []
        assert model.pending_count() == len(raw)
        model.force_refresh()
        assert len(model.query(query, "london-site").pnames) == len(raw)

    def test_advance_time_triggers_refresh(self, topology, traffic):
        raw, _ = traffic
        model = SoftStateIndex(topology, zones=self._zones(topology), refresh_interval_seconds=300.0)
        for tuple_set in raw[:4]:
            model.publish(tuple_set, origin_site_for(tuple_set, topology))
        pushed = model.advance_time(10_000.0)
        assert pushed == 4
        assert model.pending_count() == 0

    def test_removed_data_still_advertised_until_refresh(self, topology, traffic):
        raw, _ = traffic
        model = SoftStateIndex(topology, zones=self._zones(topology), refresh_interval_seconds=300.0)
        for tuple_set in raw:
            model.publish(tuple_set, origin_site_for(tuple_set, topology))
        model.force_refresh()
        victim = raw[0]
        model.remove(victim.pname)
        located = model.locate(victim.pname, "london-site")
        assert any("stale" in note for note in located.notes)

    def test_closure_refused(self, topology, traffic):
        raw, _ = traffic
        model = SoftStateIndex(topology, zones=self._zones(topology))
        with pytest.raises(UnsupportedQueryError):
            model.ancestors(raw[0].pname, "london-site")

    def test_zone_membership(self, topology):
        model = SoftStateIndex(topology, zones=self._zones(topology))
        assert model.zone_of("london-site") in ("a", "b")
        with pytest.raises(UnknownEntityError):
            model.zone_of("warehouse")


class TestHierarchical:
    def test_requires_significance_order(self, topology):
        with pytest.raises(ConfigurationError):
            HierarchicalNamespace(topology, significance_order=[])

    def test_primary_attribute_routes_to_one_server(self, topology, traffic):
        raw, derived = traffic
        model = HierarchicalNamespace(topology, significance_order=["city", "domain"])
        publish_all(model, raw + derived, topology)
        primary = model.query(Query(AttributeEquals("city", "london")), "london-site")
        secondary = model.query(Query(AttributeEquals("domain", "traffic")), "london-site")
        assert len(primary.sites_contacted) == 1
        assert len(secondary.sites_contacted) == len(topology)
        assert any("broadcast" in note for note in secondary.notes)

    def test_paths_follow_significance_order(self, topology, traffic):
        raw, _ = traffic
        model = HierarchicalNamespace(topology, significance_order=["city", "domain"])
        path = model.path_for(raw[0])
        city = raw[0].provenance.get("city")
        assert path.startswith(f"/{city}/traffic/")
        assert path.endswith(raw[0].pname.short)

    def test_same_component_same_server(self, topology):
        model = HierarchicalNamespace(topology, significance_order=["city"])
        assert model.server_for_component("s:london") == model.server_for_component("s:london")

    def test_locate_unknown(self, topology, traffic):
        raw, _ = traffic
        model = HierarchicalNamespace(topology, significance_order=["city"])
        assert "unknown pname" in model.locate(raw[0].pname, "london-site").notes


class TestDHT:
    def test_needs_at_least_two_sites(self):
        from repro.net import Site, Topology

        lonely = Topology()
        lonely.add_site(Site("only", GeoPoint(0.0, 0.0)))
        with pytest.raises(ConfigurationError):
            DistributedHashTable(lonely)

    def test_successor_is_consistent(self, topology):
        model = DistributedHashTable(topology)
        assert model.successor(12345) == model.successor(12345)

    def test_publish_fanout_counts_attribute_entries(self, topology, traffic):
        raw, _ = traffic
        model = DistributedHashTable(topology, indexed_attributes=["domain", "city"])
        assert model.updates_per_publish() == 3
        cost = model.publish(raw[0], "london-site")
        hops = model.route_hops("london-site")
        assert cost.messages == 3 * hops

    def test_query_on_unindexed_attribute_floods(self, topology, traffic):
        raw, derived = traffic
        model = DistributedHashTable(topology, indexed_attributes=["domain"])
        publish_all(model, raw + derived, topology)
        routed = model.query(Query(AttributeEquals("domain", "traffic")), "london-site")
        flooded = model.query(
            Query(AttributeRange("window_start", low=Timestamp(0.0), high=Timestamp(600.0))),
            "london-site",
        )
        assert any("flooded" in note for note in flooded.notes)
        assert not any("flooded" in note for note in routed.notes)

    def test_placement_ignores_locality(self, topology, traffic):
        raw, _ = traffic
        model = DistributedHashTable(topology)
        publish_all(model, raw, topology)
        distances = [
            model.placement_distance_km(ts.pname, origin_site_for(ts, topology)) for ts in raw
        ]
        assert max(distances) > 1000.0

    def test_updater_scaling_math(self, topology):
        model = DistributedHashTable(topology, per_node_updates_per_second=50.0)
        capacity = model.ring_update_capacity()
        assert capacity == 50.0 * len(topology.site_names)
        assert model.max_supported_updaters(1.0) == int(capacity / model.updates_per_publish())
        with pytest.raises(ConfigurationError):
            model.max_supported_updaters(0.0)


class TestLocaleAware:
    def test_data_placed_at_nearest_site(self, topology, traffic):
        raw, _ = traffic
        model = LocaleAwarePass(topology)
        publish_all(model, raw, topology)
        for tuple_set in raw:
            origin = origin_site_for(tuple_set, topology)
            assert model.home_of(tuple_set.pname) == origin
            assert model.placement_distance_km(tuple_set.pname, origin) == 0.0

    def test_local_query_stays_local(self, topology, traffic):
        raw, derived = traffic
        model = LocaleAwarePass(topology)
        london_only = [ts for ts in raw + derived if ts.provenance.get("city") == "london"]
        publish_all(model, london_only, topology)
        answer = model.query(Query(AttributeEquals("city", "london")), "london-site")
        assert answer.sites_contacted == ["london-site"]

    def test_query_routed_only_to_catalogued_sites(self, topology, traffic):
        raw, derived = traffic
        model = LocaleAwarePass(topology)
        publish_all(model, raw + derived, topology)
        answer = model.query(Query(AttributeEquals("city", "boston")), "boston-site")
        assert set(answer.sites_contacted).issubset({"london-site", "boston-site"})

    def test_unknown_attribute_query_checks_local_site_only(self, topology, traffic):
        raw, _ = traffic
        model = LocaleAwarePass(topology)
        publish_all(model, raw, topology)
        answer = model.query(Query(AttributeEquals("never_seen", 1)), "tokyo-site")
        assert answer.pnames == []
        assert answer.sites_contacted == ["tokyo-site"]

    def test_home_of_unknown_raises(self, topology, traffic):
        raw, _ = traffic
        model = LocaleAwarePass(topology)
        with pytest.raises(UnknownEntityError):
            model.home_of(raw[0].pname)

    def test_cross_site_lineage_complete(self, topology):
        """Derived data homed at one site still reports ancestors homed at another."""
        from repro.core import Agent, ProvenanceRecord, TupleSet
        from repro.pipeline import MergeOperator

        workload = TrafficWorkload(seed=77, cities=("london", "boston"), stations_per_city=2)
        raw = workload.tuple_sets(hours=0.5)
        london = [ts for ts in raw if ts.provenance.get("city") == "london"]
        boston = [ts for ts in raw if ts.provenance.get("city") == "boston"]
        cross = MergeOperator("cross-city-merge", carry_attributes=("city",)).apply_many(
            [london[0], boston[0]]
        )
        model = LocaleAwarePass(topology)
        publish_all(model, raw + [cross], topology)
        ancestors = model.ancestors(cross.pname, "tokyo-site")
        assert {london[0].pname, boston[0].pname}.issubset(ancestors.pname_set())
        descendants = model.descendants(boston[0].pname, "tokyo-site")
        assert cross.pname in descendants.pname_set()
