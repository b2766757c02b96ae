"""Shared fixtures for the test suite.

Fixtures build small, deterministic workloads so individual tests stay
fast; anything that needs scale builds its own data.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import Agent, GeoPoint, PassStore, ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.eval.scenario import build_all_models, standard_topology
from repro.sensors.workloads import MedicalWorkload, TrafficWorkload

# ``--hypothesis-profile=thorough``: five times the examples and no
# deadline, for the suites whose ``@settings`` leave the example count to
# the profile (CI re-runs the planner-parity and index properties so).
settings.register_profile("thorough", max_examples=5 * settings.default.max_examples, deadline=None)


@pytest.fixture
def sample_record() -> ProvenanceRecord:
    """A minimal raw provenance record."""
    return ProvenanceRecord(
        attributes={
            "domain": "traffic",
            "city": "london",
            "network": "london-congestion-zone",
            "window_start": Timestamp(0.0),
            "window_end": Timestamp(300.0),
            "location": GeoPoint(51.5074, -0.1278),
        },
        agents=(Agent("sensor-network", "london-congestion-zone", "1.0"),),
    )


@pytest.fixture
def sample_tuple_set(sample_record) -> TupleSet:
    """A small tuple set with three readings."""
    readings = [
        SensorReading(
            sensor_id=f"london-cam-{i:03d}",
            timestamp=Timestamp(10.0 * i),
            values={"vehicle_count": 5 + i, "mean_speed_kph": 30.0 + i},
            location=GeoPoint(51.5074, -0.1278),
        )
        for i in range(3)
    ]
    return TupleSet(readings, sample_record)


@pytest.fixture
def store() -> PassStore:
    """An empty in-memory PASS store."""
    return PassStore()


@pytest.fixture
def traffic_workload() -> TrafficWorkload:
    """A small two-city traffic workload."""
    return TrafficWorkload(seed=42, cities=("london", "boston"), stations_per_city=2)


@pytest.fixture
def traffic_sets(traffic_workload):
    """(raw, derived) tuple sets for one hour of the traffic workload."""
    return traffic_workload.all_sets(hours=1.0)


@pytest.fixture
def populated_store(traffic_sets) -> PassStore:
    """A store holding the small traffic workload, raw and derived."""
    raw, derived = traffic_sets
    store = PassStore()
    for tuple_set in raw + derived:
        store.ingest(tuple_set)
    return store


@pytest.fixture
def medical_workload() -> MedicalWorkload:
    """A small EMT workload."""
    return MedicalWorkload(seed=7, patients=3, emts=2)


@pytest.fixture
def topology():
    """The standard four-city + warehouse evaluation topology."""
    return standard_topology()


@pytest.fixture
def all_models(topology):
    """Every architecture model over the standard topology."""
    return build_all_models(topology)
