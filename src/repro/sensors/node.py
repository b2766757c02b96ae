"""Simulated sensor nodes.

The paper's substrate is a collection of deployed sensor networks
(traffic cameras and magnetometers, volcano seismometers, pulse
oximeters, ...).  We cannot run those, so :class:`SensorNode` simulates
one device: it has an identity, a type, a location, a hardware/firmware
revision (which matters for provenance: "one might mark when individual
sensors were replaced with newer models"), a sampling period and a value
model that produces plausible readings.

Value models are simple callables so each workload module can shape its
own signal (diurnal traffic cycles, vital-sign baselines, eruption
bursts) without this module knowing about any of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional

from repro.core.attributes import AttributeValue, GeoPoint, Timestamp
from repro.core.tupleset import SensorReading
from repro.errors import ConfigurationError

__all__ = ["SensorSpec", "SensorNode"]

#: A value model maps (node, timestamp, rng) to the measured quantities.
ValueModel = Callable[["SensorNode", Timestamp, random.Random], Dict[str, AttributeValue]]


@dataclass(frozen=True)
class SensorSpec:
    """Static description of a sensor device.

    Attributes
    ----------
    sensor_type:
        What the device measures (``"magnetometer"``, ``"pulse-oximeter"`` ...).
    model:
        Hardware model name.
    hardware_revision / firmware_version:
        Revisions recorded in provenance.
    sample_period_seconds:
        Nominal seconds between readings.
    """

    sensor_type: str
    model: str
    hardware_revision: str = "rev-a"
    firmware_version: str = "1.0"
    sample_period_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.sample_period_seconds <= 0:
            raise ConfigurationError("sample_period_seconds must be positive")


class SensorNode:
    """One simulated sensor device producing a stream of readings."""

    def __init__(
        self,
        sensor_id: str,
        spec: SensorSpec,
        location: GeoPoint,
        value_model: ValueModel,
        jitter_fraction: float = 0.05,
        failure_rate: float = 0.0,
    ) -> None:
        if not sensor_id:
            raise ConfigurationError("sensor_id must be non-empty")
        if not (0.0 <= jitter_fraction < 1.0):
            raise ConfigurationError("jitter_fraction must be in [0, 1)")
        if not (0.0 <= failure_rate < 1.0):
            raise ConfigurationError("failure_rate must be in [0, 1)")
        self.sensor_id = sensor_id
        self.spec = spec
        self.location = location
        self._value_model = value_model
        self._jitter_fraction = jitter_fraction
        self._failure_rate = failure_rate

    # ------------------------------------------------------------------
    # Reading generation
    # ------------------------------------------------------------------
    def readings(
        self,
        start: Timestamp,
        duration_seconds: float,
        rng: random.Random,
    ) -> Iterator[SensorReading]:
        """Generate readings covering ``[start, start + duration)``.

        Sample times are the nominal period plus bounded jitter; a node
        configured with a ``failure_rate`` silently drops that fraction
        of samples (sensors do fail, and the gaps matter to aggregate
        quality downstream).
        """
        if duration_seconds <= 0:
            raise ConfigurationError("duration_seconds must be positive")
        period = self.spec.sample_period_seconds
        elapsed = 0.0
        while elapsed < duration_seconds:
            jitter = rng.uniform(-self._jitter_fraction, self._jitter_fraction) * period
            when = Timestamp(start.seconds + elapsed + max(0.0, jitter))
            if when.seconds >= start.seconds + duration_seconds:
                break
            if self._failure_rate == 0.0 or rng.random() >= self._failure_rate:
                values = dict(self._value_model(self, when, rng))
                yield SensorReading(
                    sensor_id=self.sensor_id,
                    timestamp=when,
                    values=values,
                    location=self.location,
                )
            elapsed += period

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SensorNode({self.sensor_id}, {self.spec.sensor_type})"
