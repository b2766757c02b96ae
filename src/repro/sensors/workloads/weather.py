"""Weather workload: the cross-domain partner of the traffic workload.

The paper's introduction: "Even deeper insight might be gained by
merging historical traffic data with historical weather data", and
Section III-D notes that "the traffic and weather communities might not
agree beforehand on how to store and represent their data sets, but they
may later want to query across them."

To make that scenario runnable, the weather workload deliberately uses a
*different* provenance schema from the traffic workload (``region`` and
``agency`` instead of ``city`` and ``owner``; readings in SI units), so
the federation example and experiment E6 genuinely exercise
cross-schema, cross-domain querying.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from repro.core.attributes import Timestamp
from repro.core.query import And, AttributeEquals, AttributeRange, Query
from repro.core.tupleset import TupleSet
from repro.pipeline.operators import AggregateOperator, CalibrationOperator
from repro.sensors.network import SensorNetwork
from repro.sensors.node import SensorNode, SensorSpec
from repro.sensors.workloads.base import Workload, grid_locations
from repro.sensors.workloads.traffic import CITY_CENTRES

__all__ = ["WeatherWorkload"]


def _weather_station_model(node: SensorNode, when: Timestamp, rng: random.Random) -> Dict[str, object]:
    """Temperature / humidity / rainfall with a daily cycle."""
    hour = (when.seconds / 3600.0) % 24.0
    diurnal = math.sin((hour - 6.0) / 24.0 * 2.0 * math.pi)
    temperature = 12.0 + 7.0 * diurnal + rng.gauss(0.0, 0.8)
    humidity = min(1.0, max(0.1, 0.7 - 0.2 * diurnal + rng.gauss(0.0, 0.05)))
    raining = rng.random() < 0.15
    rainfall = abs(rng.gauss(1.5, 1.0)) if raining else 0.0
    return {
        "temperature_c": temperature,
        "relative_humidity": humidity,
        "rainfall_mm": rainfall,
    }


class WeatherWorkload(Workload):
    """Regional weather-station deployments aligned with the traffic cities."""

    domain = "weather"

    def __init__(
        self,
        seed: int = 0,
        start: Optional[Timestamp] = None,
        regions: Sequence[str] = ("london",),
        stations_per_region: int = 5,
        window_seconds: float = 600.0,
    ) -> None:
        super().__init__(seed=seed, start=start)
        unknown = [region for region in regions if region not in CITY_CENTRES]
        if unknown:
            raise ValueError(f"unknown regions: {unknown}; known: {sorted(CITY_CENTRES)}")
        self.regions = list(regions)
        self.stations_per_region = stations_per_region
        self.window_seconds = window_seconds

    def build_networks(self) -> List[SensorNetwork]:
        networks = []
        for region_index, region in enumerate(self.regions):
            network = SensorNetwork(
                name=f"{region}-met-office",
                domain=self.domain,
                base_attributes={"region": region, "agency": "national-met-service"},
                window_seconds=self.window_seconds,
                seed=self.seed * 2000 + region_index,
            )
            centre = CITY_CENTRES[region]
            locations = grid_locations(centre, self.stations_per_region, spacing_degrees=0.05)
            for station, location in enumerate(locations):
                spec = SensorSpec(
                    sensor_type="weather-station",
                    model="met-one-34b",
                    sample_period_seconds=120.0,
                )
                network.add_node(
                    SensorNode(
                        sensor_id=f"{region}-wx-{station:03d}",
                        spec=spec,
                        location=location,
                        value_model=_weather_station_model,
                        failure_rate=0.005,
                    )
                )
            networks.append(network)
        return networks

    def derived_sets(self, raw_sets: Sequence[TupleSet]) -> List[TupleSet]:
        """Calibrate temperatures and produce per-window regional summaries."""
        if not raw_sets:
            return []
        region_context = ("region", "agency")
        calibrate = CalibrationOperator(
            "thermistor-correction",
            quantity="temperature_c",
            gain=1.0,
            offset=-0.4,
            carry_attributes=region_context,
        )
        summarise = AggregateOperator(
            "regional-summary", version="1.2", carry_attributes=region_context
        )
        derived: List[TupleSet] = []
        for tuple_set in raw_sets:
            calibrated = calibrate.apply(tuple_set)
            derived.append(calibrated)
            derived.append(summarise.apply(calibrated))
        return derived

    def query_suite(self) -> Dict[str, Query]:
        """Representative weather queries used by experiment E4."""
        first_region = self.regions[0]
        return {
            "windows_in_first_region": Query(AttributeEquals("region", first_region)),
            "calibrated_outputs": Query(
                And(
                    (
                        AttributeEquals("domain", self.domain),
                        AttributeEquals("stage", "calibrated"),
                    )
                )
            ),
            "overnight_windows": Query(
                And(
                    (
                        AttributeEquals("domain", self.domain),
                        AttributeRange(
                            "window_start",
                            low=Timestamp(self.start.seconds),
                            high=Timestamp(self.start.seconds + 6 * 3600),
                        ),
                    )
                )
            ),
        }
