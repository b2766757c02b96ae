"""Traffic workload: congestion-zone style vehicle sensing.

The paper's running example: "while traffic data from London's
Congestion Zone is useful immediately to ticket non-paying drivers, it
is also useful in other ways: it could be aggregated over time to
estimate the effects of changing Zone size, or it could be combined
geographically with data from other cities".

The workload models one or more city deployments.  Each city has a mix
of camera and magnetometer stations (the two raw sensor types the paper
mentions for car sightings).  The derived pipeline is the amalgamation +
filtering + hourly aggregation chain of Section II-A's example, so
lineage queries have realistic shape: sightings from heterogeneous
sensors are merged, implausible readings filtered, then rolled up.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from repro.core.attributes import GeoPoint, Timestamp
from repro.core.query import (
    And,
    AttributeEquals,
    AttributeRange,
    NearLocation,
    Query,
)
from repro.core.tupleset import TupleSet
from repro.pipeline.operators import AggregateOperator, FilterOperator, MergeOperator
from repro.sensors.network import SensorNetwork
from repro.sensors.node import SensorNode, SensorSpec
from repro.sensors.workloads.base import Workload, grid_locations

__all__ = ["CITY_CENTRES", "TrafficWorkload"]

#: Approximate centres of the cities the paper name-drops.
CITY_CENTRES: Dict[str, GeoPoint] = {
    "london": GeoPoint(51.5074, -0.1278),
    "boston": GeoPoint(42.3601, -71.0589),
    "seattle": GeoPoint(47.6062, -122.3321),
    "singapore": GeoPoint(1.3521, 103.8198),
    "tokyo": GeoPoint(35.6762, 139.6503),
}


def _camera_model(node: SensorNode, when: Timestamp, rng: random.Random) -> Dict[str, object]:
    """Vehicle counts with a diurnal rush-hour cycle plus noise."""
    hour = (when.seconds / 3600.0) % 24.0
    rush = math.exp(-((hour - 8.5) ** 2) / 4.0) + math.exp(-((hour - 17.5) ** 2) / 4.0)
    base = 4.0 + 40.0 * rush
    count = max(0, int(rng.gauss(base, base * 0.2)))
    speed = max(3.0, rng.gauss(45.0 - 25.0 * rush, 6.0))
    return {"vehicle_count": count, "mean_speed_kph": speed, "detector": "camera"}


def _magnetometer_model(node: SensorNode, when: Timestamp, rng: random.Random) -> Dict[str, object]:
    """Axle-crossing counts; noisier than cameras and occasionally saturating."""
    hour = (when.seconds / 3600.0) % 24.0
    rush = math.exp(-((hour - 8.5) ** 2) / 4.0) + math.exp(-((hour - 17.5) ** 2) / 4.0)
    base = 5.0 + 45.0 * rush
    count = max(0, int(rng.gauss(base, base * 0.35)))
    return {"vehicle_count": min(count, 120), "detector": "magnetometer"}


class TrafficWorkload(Workload):
    """Congestion-zone vehicle sensing in one or more cities.

    Parameters
    ----------
    cities:
        City names from :data:`CITY_CENTRES` (default: London only; the
        locality experiments pass several).
    stations_per_city:
        Sensor stations per deployment; each station gets one camera and
        one magnetometer.
    window_seconds:
        Tuple-set window width (default five minutes).
    """

    domain = "traffic"

    def __init__(
        self,
        seed: int = 0,
        start: Optional[Timestamp] = None,
        cities: Sequence[str] = ("london",),
        stations_per_city: int = 8,
        window_seconds: float = 300.0,
    ) -> None:
        super().__init__(seed=seed, start=start)
        unknown = [city for city in cities if city not in CITY_CENTRES]
        if unknown:
            raise ValueError(f"unknown cities: {unknown}; known: {sorted(CITY_CENTRES)}")
        self.cities = list(cities)
        self.stations_per_city = stations_per_city
        self.window_seconds = window_seconds

    # ------------------------------------------------------------------
    # Networks
    # ------------------------------------------------------------------
    def build_networks(self) -> List[SensorNetwork]:
        networks = []
        for city_index, city in enumerate(self.cities):
            network = SensorNetwork(
                name=f"{city}-congestion-zone",
                domain=self.domain,
                base_attributes={"city": city, "owner": f"{city}-transport-authority"},
                window_seconds=self.window_seconds,
                seed=self.seed * 1000 + city_index,
            )
            centre = CITY_CENTRES[city]
            locations = grid_locations(centre, self.stations_per_city, spacing_degrees=0.01)
            for station, location in enumerate(locations):
                camera_spec = SensorSpec(
                    sensor_type="camera",
                    model="plate-cam-200",
                    sample_period_seconds=60.0,
                )
                magnet_spec = SensorSpec(
                    sensor_type="magnetometer",
                    model="axle-sense-3",
                    sample_period_seconds=30.0,
                )
                network.add_node(
                    SensorNode(
                        sensor_id=f"{city}-cam-{station:03d}",
                        spec=camera_spec,
                        location=location,
                        value_model=_camera_model,
                        failure_rate=0.01,
                    )
                )
                network.add_node(
                    SensorNode(
                        sensor_id=f"{city}-mag-{station:03d}",
                        spec=magnet_spec,
                        location=location,
                        value_model=_magnetometer_model,
                        failure_rate=0.03,
                    )
                )
            networks.append(network)
        return networks

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    def derived_sets(self, raw_sets: Sequence[TupleSet]) -> List[TupleSet]:
        """Amalgamate per-window sightings, filter them, and aggregate hourly.

        Stage 1 merges the raw camera+magnetometer windows of each city
        and hour into one "sightings" set; stage 2 filters implausible
        readings; stage 3 aggregates.  Every stage records its agent and
        its inputs, giving three generations of lineage above the raw
        windows.
        """
        if not raw_sets:
            return []
        city_context = ("city", "owner")
        merge = MergeOperator(
            "sighting-amalgamator", version="2.1", carry_attributes=city_context
        )
        plausibility = FilterOperator(
            "sighting-filter",
            predicate=lambda reading: 0 <= float(reading.value("vehicle_count", 0)) <= 150,
            version="1.4",
            parameters={"max_count": 150},
            carry_attributes=city_context,
        )
        aggregate = AggregateOperator(
            "hourly-aggregator", version="3.0", carry_attributes=city_context
        )

        derived: List[TupleSet] = []
        by_city_hour: Dict[tuple, List[TupleSet]] = {}
        for tuple_set in raw_sets:
            city = tuple_set.provenance.get("city")
            start = tuple_set.provenance.get("window_start")
            if city is None or not isinstance(start, Timestamp):
                continue
            hour = int(start.seconds // 3600)
            by_city_hour.setdefault((str(city), hour), []).append(tuple_set)

        for (city, hour), members in sorted(by_city_hour.items()):
            merged = merge.apply_many(members)
            filtered = plausibility.apply(merged)
            aggregated = aggregate.apply(filtered)
            derived.extend([merged, filtered, aggregated])
        return derived

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_suite(self) -> Dict[str, Query]:
        """Representative traffic queries used by experiment E4."""
        first_city = self.cities[0]
        centre = CITY_CENTRES[first_city]
        return {
            "windows_in_first_city": Query(AttributeEquals("city", first_city)),
            "sightings_near_centre": Query(
                And(
                    (
                        AttributeEquals("domain", self.domain),
                        NearLocation("location", centre, radius_km=10.0),
                    )
                )
            ),
            "morning_rush_windows": Query(
                And(
                    (
                        AttributeEquals("domain", self.domain),
                        AttributeRange(
                            "window_start",
                            low=Timestamp(self.start.seconds + 7 * 3600),
                            high=Timestamp(self.start.seconds + 10 * 3600),
                        ),
                    )
                )
            ),
            "hourly_aggregates": Query(
                And(
                    (
                        AttributeEquals("domain", self.domain),
                        AttributeEquals("stage", "aggregated"),
                    )
                )
            ),
        }
