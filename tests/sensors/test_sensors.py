"""Tests for sensor nodes, networks and the six domain workloads."""

from __future__ import annotations

import random

import pytest

from repro.core import GeoPoint, PassStore, Timestamp
from repro.errors import ConfigurationError, UnknownEntityError
from repro.sensors import SensorNetwork, SensorNode, SensorSpec
from repro.sensors.workloads import (
    MedicalWorkload,
    StructuralWorkload,
    SupplyChainWorkload,
    TrafficWorkload,
    VolcanoWorkload,
    WeatherWorkload,
    grid_locations,
)

LOCATION = GeoPoint(51.5, -0.12)


def _model(node, when, rng):
    return {"value": rng.random()}


def _node(sensor_id="s1", period=60.0, failure_rate=0.0):
    return SensorNode(
        sensor_id=sensor_id,
        spec=SensorSpec("thermometer", "t-1000", sample_period_seconds=period),
        location=LOCATION,
        value_model=_model,
        failure_rate=failure_rate,
    )


class TestSensorNode:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SensorSpec("x", "y", sample_period_seconds=0.0)

    def test_node_validation(self):
        with pytest.raises(ConfigurationError):
            SensorNode("", SensorSpec("a", "b"), LOCATION, _model)
        with pytest.raises(ConfigurationError):
            SensorNode("s", SensorSpec("a", "b"), LOCATION, _model, jitter_fraction=1.5)
        with pytest.raises(ConfigurationError):
            SensorNode("s", SensorSpec("a", "b"), LOCATION, _model, failure_rate=1.0)

    def test_reading_count_matches_period(self):
        node = _node(period=60.0)
        readings = list(node.readings(Timestamp(0.0), 600.0, random.Random(1)))
        assert len(readings) == 10

    def test_readings_within_interval(self):
        node = _node(period=60.0)
        readings = list(node.readings(Timestamp(100.0), 300.0, random.Random(1)))
        assert all(100.0 <= r.timestamp.seconds < 400.0 for r in readings)

    def test_failure_rate_drops_samples(self):
        healthy = list(_node(failure_rate=0.0).readings(Timestamp(0.0), 6000.0, random.Random(2)))
        flaky = list(_node(failure_rate=0.5).readings(Timestamp(0.0), 6000.0, random.Random(2)))
        assert len(flaky) < len(healthy)

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            list(_node().readings(Timestamp(0.0), 0.0, random.Random(1)))


class TestSensorNetwork:
    def _network(self, nodes=2):
        network = SensorNetwork("test-net", "traffic", window_seconds=300.0, seed=1)
        for index in range(nodes):
            network.add_node(_node(sensor_id=f"s{index}"))
        return network

    def test_requires_name_and_domain(self):
        with pytest.raises(ConfigurationError):
            SensorNetwork("", "traffic")

    def test_duplicate_node_rejected(self):
        network = self._network(1)
        with pytest.raises(ConfigurationError):
            network.add_node(_node(sensor_id="s0"))

    def test_unknown_node_lookup(self):
        with pytest.raises(UnknownEntityError):
            self._network().node("missing")

    def test_readings_require_nodes(self):
        network = SensorNetwork("empty", "traffic")
        with pytest.raises(ConfigurationError):
            network.readings(Timestamp(0.0), 100.0)

    def test_readings_are_time_ordered(self):
        readings = self._network().readings(Timestamp(0.0), 1200.0)
        times = [r.timestamp.seconds for r in readings]
        assert times == sorted(times)

    def test_tuple_sets_carry_network_provenance(self):
        sets = self._network().tuple_sets(Timestamp(0.0), 900.0)
        assert len(sets) == 3
        record = sets[0].provenance
        assert record.get("network") == "test-net"
        assert record.get("domain") == "traffic"
        assert record.get("location") is not None
        assert record.get("contributing_sensors") == ("s0", "s1")
        assert record.agents[0].name == "test-net"

    def test_centroid(self):
        assert self._network().centroid() == LOCATION

    def test_reproducible_with_same_seed(self):
        a = SensorNetwork("n", "traffic", seed=5)
        b = SensorNetwork("n", "traffic", seed=5)
        for network in (a, b):
            network.add_node(
                SensorNode("s0", SensorSpec("t", "m"), LOCATION, _model)
            )
        sets_a = a.tuple_sets(Timestamp(0.0), 600.0)
        sets_b = b.tuple_sets(Timestamp(0.0), 600.0)
        assert [ts.pname for ts in sets_a] == [ts.pname for ts in sets_b]


class TestGridLocations:
    def test_count_and_spread(self):
        points = grid_locations(GeoPoint(0.0, 0.0), 9, spacing_degrees=0.1)
        assert len(points) == 9
        assert len({(p.latitude, p.longitude) for p in points}) == 9

    def test_requires_positive_count(self):
        with pytest.raises(ConfigurationError):
            grid_locations(GeoPoint(0.0, 0.0), 0)


WORKLOADS = [
    (TrafficWorkload, {"stations_per_city": 2}, 1.0),
    (WeatherWorkload, {"stations_per_region": 2}, 1.0),
    (MedicalWorkload, {"patients": 2}, 0.25),
    (VolcanoWorkload, {"stations": 4}, 3.0),
    (StructuralWorkload, {"sensors_per_structure": 2}, 1.0),
    (SupplyChainWorkload, {"shipments": 2}, 2.0),
]


@pytest.mark.parametrize("workload_class, kwargs, hours", WORKLOADS)
class TestWorkloads:
    def test_produces_raw_and_ingestible_sets(self, workload_class, kwargs, hours):
        workload = workload_class(seed=3, **kwargs)
        raw, derived = workload.all_sets(hours=hours)
        assert raw, "every workload must produce raw tuple sets"
        store = PassStore()
        for tuple_set in raw + derived:
            store.ingest(tuple_set)
        assert len(store) == len({ts.pname for ts in raw + derived})
        assert store.verify_invariants() == []

    def test_derived_sets_reference_raw_ancestors(self, workload_class, kwargs, hours):
        workload = workload_class(seed=3, **kwargs)
        raw, derived = workload.all_sets(hours=hours)
        raw_pnames = {ts.pname for ts in raw}
        for tuple_set in derived:
            assert not tuple_set.provenance.is_raw()
        if derived:
            referenced = set()
            for tuple_set in derived:
                referenced.update(tuple_set.provenance.ancestors)
            assert referenced & raw_pnames

    def test_query_suite_executes(self, workload_class, kwargs, hours):
        workload = workload_class(seed=3, **kwargs)
        raw, derived = workload.all_sets(hours=hours)
        store = PassStore()
        for tuple_set in raw + derived:
            store.ingest(tuple_set)
        for name, query in workload.query_suite().items():
            results = store.query(query)
            assert isinstance(results, list), name

    def test_deterministic_given_seed(self, workload_class, kwargs, hours):
        first = workload_class(seed=11, **kwargs).tuple_sets(hours=hours)
        second = workload_class(seed=11, **kwargs).tuple_sets(hours=hours)
        assert [ts.pname for ts in first] == [ts.pname for ts in second]

    def test_describe_reports_basics(self, workload_class, kwargs, hours):
        workload = workload_class(seed=3, **kwargs)
        facts = workload.describe()
        assert facts["domain"] == workload.domain
        assert facts["sensors"] > 0


class TestWorkloadSpecifics:
    def test_traffic_rejects_unknown_city(self):
        with pytest.raises(ValueError):
            TrafficWorkload(cities=("atlantis",))

    def test_weather_rejects_unknown_region(self):
        with pytest.raises(ValueError):
            WeatherWorkload(regions=("atlantis",))

    def test_structural_rejects_unknown_structure(self):
        with pytest.raises(ValueError):
            StructuralWorkload(structures=("eiffel-tower",))

    def test_traffic_multi_city_has_distinct_locations(self):
        workload = TrafficWorkload(seed=1, cities=("london", "boston"), stations_per_city=2)
        centroids = [network.centroid() for network in workload.networks]
        assert centroids[0].distance_km(centroids[1]) > 1000.0

    def test_medical_patient_assignment(self):
        workload = MedicalWorkload(seed=1, patients=4, emts=2)
        assert workload.emt_for("patient-000") == "emt-00"
        assert workload.emt_for("patient-001") == "emt-01"

    def test_medical_derived_keeps_patient_attribute(self):
        workload = MedicalWorkload(seed=1, patients=2)
        raw, derived = workload.all_sets(hours=0.25)
        assert any(ts.provenance.get("patient") is not None for ts in derived)

    def test_volcano_events_fan_in_when_tremor_occurs(self):
        workload = VolcanoWorkload(seed=5, stations=8)
        raw, derived = workload.all_sets(hours=4.0)
        assert derived, "four hours include a tremor episode, so events should exist"
        assert all(len(ts.provenance.ancestors) >= 2 for ts in derived)

    def test_supply_chain_shipments_have_distinct_chains(self):
        workload = SupplyChainWorkload(seed=2, shipments=3)
        raw, derived = workload.all_sets(hours=2.0)
        chains = [ts for ts in derived if ts.provenance.get("operator") == "chain-of-custody-builder"]
        assert len(chains) == 3
        assert len({ts.pname for ts in chains}) == 3
