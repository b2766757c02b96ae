"""Simulated sensor networks: a named collection of sensor nodes.

A :class:`SensorNetwork` groups nodes belonging to one deployment (one
city's congestion zone, one volcano, one ambulance team's patients) and
turns their raw reading streams into provenance-named tuple sets via a
:class:`~repro.core.tupleset.TupleSetWindower`.

Every tuple set produced carries:

* the deployment's base attributes (domain, owner, region, location),
* the window boundaries and reading count,
* the set of contributing sensor ids and sensor types,
* the deployment agent (``Agent("sensor-network", <name>, <version>)``),

which is exactly the kind of provenance Section II argues should *be*
the data set's name.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.attributes import AttributeValue, GeoPoint, Timestamp
from repro.core.provenance import Agent
from repro.core.tupleset import SensorReading, TupleSet, TupleSetWindower
from repro.errors import ConfigurationError, UnknownEntityError
from repro.sensors.node import SensorNode

__all__ = ["SensorNetwork"]


class SensorNetwork:
    """A deployment of sensor nodes producing provenance-named tuple sets.

    Parameters
    ----------
    name:
        Deployment name (``"london-congestion-zone"``).
    domain:
        Application domain (``"traffic"``, ``"medical"``, ...).
    base_attributes:
        Extra attributes stamped on every tuple set (owner, region, ...).
    window_seconds:
        Width of the tuple-set time window.
    seed:
        Seed for this network's private random generator, so workloads
        are reproducible.
    version:
        Deployment software version recorded in the producing agent.
    """

    def __init__(
        self,
        name: str,
        domain: str,
        base_attributes: Optional[Mapping[str, AttributeValue]] = None,
        window_seconds: float = 300.0,
        seed: int = 0,
        version: str = "1.0",
    ) -> None:
        if not name or not domain:
            raise ConfigurationError("network name and domain must be non-empty")
        self.name = name
        self.domain = domain
        self.window_seconds = float(window_seconds)
        self._base_attributes = dict(base_attributes or {})
        self._nodes: Dict[str, SensorNode] = {}
        self._rng = random.Random(seed)
        self._agent = Agent("sensor-network", name, version)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: SensorNode) -> None:
        """Register a sensor node; ids must be unique within the network."""
        if node.sensor_id in self._nodes:
            raise ConfigurationError(f"duplicate sensor id {node.sensor_id!r}")
        self._nodes[node.sensor_id] = node

    def node(self, sensor_id: str) -> SensorNode:
        """Fetch a node by id."""
        try:
            return self._nodes[sensor_id]
        except KeyError:
            raise UnknownEntityError(f"unknown sensor {sensor_id!r}") from None

    @property
    def nodes(self) -> List[SensorNode]:
        """All registered nodes, in insertion order."""
        return list(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def agent(self) -> Agent:
        """The agent recorded as producer of this network's tuple sets."""
        return self._agent

    def centroid(self) -> Optional[GeoPoint]:
        """Mean node location: where this network's data "belongs"."""
        if not self._nodes:
            return None
        nodes = list(self._nodes.values())
        lat = sum(node.location.latitude for node in nodes) / len(nodes)
        lon = sum(node.location.longitude for node in nodes) / len(nodes)
        return GeoPoint(lat, lon)

    # ------------------------------------------------------------------
    # Data generation
    # ------------------------------------------------------------------
    def readings(self, start: Timestamp, duration_seconds: float) -> List[SensorReading]:
        """All nodes' readings over the interval, time-ordered."""
        if not self._nodes:
            raise ConfigurationError("network has no sensor nodes")
        collected: List[SensorReading] = []
        for node in self._nodes.values():
            collected.extend(node.readings(start, duration_seconds, self._rng))
        collected.sort(key=lambda reading: reading.timestamp.seconds)
        return collected

    def tuple_sets(self, start: Timestamp, duration_seconds: float) -> List[TupleSet]:
        """Generate readings and window them into provenance-named tuple sets."""
        readings = self.readings(start, duration_seconds)
        windower = TupleSetWindower(
            window_seconds=self.window_seconds,
            base_attributes=self._window_attributes(),
            agent=self._agent,
            attribute_fn=self._per_window_attributes,
        )
        return windower.window(readings)

    def _window_attributes(self) -> Dict[str, AttributeValue]:
        attributes: Dict[str, AttributeValue] = {
            "network": self.name,
            "domain": self.domain,
        }
        centroid = self.centroid()
        if centroid is not None:
            attributes["location"] = centroid
        sensor_types = sorted({node.spec.sensor_type for node in self._nodes.values()})
        if sensor_types:
            attributes["sensor_types"] = tuple(sensor_types)
        attributes.update(self._base_attributes)
        return attributes

    def _per_window_attributes(
        self, window_start: Timestamp, readings: Sequence[SensorReading]
    ) -> Dict[str, AttributeValue]:
        sensors = tuple(sorted({reading.sensor_id for reading in readings}))
        return {"contributing_sensors": sensors}
