"""Sensor readings and tuple sets: the unit of indexing.

Section II of the paper: indexing every individual sensor reading is
"infeasible, due to the sheer number of readings, and also not
necessarily useful"; the right granularity is the *tuple set*, "a
collection of readings grouped by some property, typically time".

This module provides:

* :class:`SensorReading` -- a single reading (tuple) with a timestamp, a
  value payload, the producing sensor id and an optional location.
* :class:`TupleSet` -- an ordered collection of readings plus the
  :class:`~repro.core.provenance.ProvenanceRecord` that names it.
* :class:`TupleSetWindower` -- groups a stream of readings into tuple
  sets by fixed time window (the "all the readings of a particular type
  over the span of one hour or one minute" example from the paper).
* :func:`readings_to_json` / :func:`readings_from_json` -- the one
  plain-JSON form of a list of readings; wire frames are built from it,
  and :func:`readings_to_bytes` writes its canonical dump (the stored
  payload) straight from the readings; :func:`readings_payload_from_json`
  writes it straight from the JSON a tuple set arrives as over the wire.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.core.attributes import AttributeValue, GeoPoint, Timestamp, coerce_value, ensure_attribute_map
from repro.core.provenance import (
    Agent,
    PName,
    ProvenanceRecord,
    canonical_json,
    json_name,
    plain_json_text,
    value_from_json,
    value_json_text,
    value_to_json,
)
from repro.errors import PassError, ProvenanceError

__all__ = [
    "SensorReading",
    "TupleSet",
    "TupleSetWindower",
    "readings_to_json",
    "readings_to_bytes",
    "readings_from_json",
    "readings_payload_from_json",
]


@dataclass(frozen=True)
class SensorReading:
    """One sensor reading (a tuple).

    Attributes
    ----------
    sensor_id:
        Identifier of the physical (simulated) sensor that produced it.
    timestamp:
        When the reading was taken.
    values:
        The measured quantities, e.g. ``{"speed_kph": 42.0}`` or
        ``{"heart_rate": 88, "spo2": 0.97}``.
    location:
        Where the reading was taken, when known.
    """

    sensor_id: str
    timestamp: Timestamp
    values: Mapping[str, AttributeValue] = field(default_factory=dict)
    location: Optional[GeoPoint] = None

    def __post_init__(self) -> None:
        if not self.sensor_id:
            raise ProvenanceError("sensor_id must be non-empty")
        if not isinstance(self.timestamp, Timestamp):
            raise ProvenanceError("timestamp must be a Timestamp")
        object.__setattr__(self, "values", dict(ensure_attribute_map(dict(self.values))))

    def value(self, name: str, default=None):
        """Return one measured quantity by name."""
        return self.values.get(name, default)

    def size_bytes(self) -> int:
        """Rough serialised size, used for network/storage accounting."""
        base = 16 + len(self.sensor_id) + 8  # id + timestamp
        for key, val in self.values.items():
            base += len(key) + 12
        if self.location is not None:
            base += 16
        return base


def readings_to_json(readings: Iterable[SensorReading]) -> List[dict]:
    """The plain-JSON form of ``readings``.

    Values ride the tagged convention of
    :func:`repro.core.provenance.value_to_json`; ``location`` is present
    only when the reading carries one.  The store persists the canonical
    dump of this list and the wire protocol sends the list itself, so the
    key set and nesting here are a stored *and* a wire format.
    """
    items = []
    for reading in readings:
        item = {
            "sensor_id": reading.sensor_id,
            "timestamp": reading.timestamp.seconds,
            "values": {key: value_to_json(value) for key, value in reading.values.items()},
        }
        if reading.location is not None:
            item["location"] = [reading.location.latitude, reading.location.longitude]
        items.append(item)
    return items


def readings_to_bytes(readings: Iterable[SensorReading]) -> bytes:
    """The stored payload: the canonical dump of :func:`readings_to_json`.

    Byte for byte ``canonical_json(readings_to_json(readings))``, which
    P3 compares and old files hold (tests/test_properties.py holds the
    two equal), written without building the list of dicts.  A tuple set
    is one sensor's window, so the part of an item that spells the
    sensor and its place is built once per distinct pair in this call;
    a set that mixes sensors merely builds more of them.
    """
    heads: Dict[tuple, str] = {}
    items = []
    for reading in readings:
        sensor_id, location = reading.sensor_id, reading.location
        if type(sensor_id) is not str:
            # Keys that compare equal (True, 1, 1.0) are spelled differently.
            items.append(canonical_json(readings_to_json((reading,))[0]))
            continue
        # The place by identity: equal points (0.0 and -0.0, 1 and 1.0) are too.
        key = (sensor_id, id(location))
        head = heads.get(key)
        if head is None:
            head = f'"sensor_id":{plain_json_text(sensor_id)}'
            if location is not None:
                latitude = plain_json_text(location.latitude)
                head = f'"location":[{latitude},{plain_json_text(location.longitude)}],{head}'
            heads[key] = head
        values = reading.values
        members = ",".join(
            [f"{plain_json_text(name)}:{value_json_text(values[name])}" for name in sorted(values)]
        )
        items.append(
            f'{{{head},"timestamp":{plain_json_text(reading.timestamp.seconds)},"values":{{{members}}}}}'
        )
    return f'[{",".join(items)}]'.encode("ascii")


_READING_KEYS = frozenset({"sensor_id", "timestamp", "values", "location"})
_PLAIN = frozenset({str, int, float, bool})  # by exact type, as JSON decodes them
_NUMBERS = frozenset({int, float})  # no boolean is a number here
_NUMBER_FIELDS = {Timestamp: ("seconds",), GeoPoint: ("latitude", "longitude")}


def readings_payload_from_json(items) -> bytes:
    """The stored payload of readings received as JSON, checked in one walk and one dump.

    Byte for byte ``readings_to_bytes(readings_from_json(items))`` wherever
    that pair accepts ``items`` (tests/test_properties.py holds them equal),
    with no :class:`SensorReading` built.  Stricter where the pair stored
    different data: no key but ``sensor_id`` (a non-empty string),
    ``timestamp`` (a number), ``values`` and ``location`` (two numbers), and
    numbers inside tagged values.  A refusal names the reading and the field.
    """
    if type(items) is not list:
        raise ProvenanceError(f"readings must be a JSON array, got {json_name(items)}")
    canonical, place = items, None
    for index, item in enumerate(items):
        try:
            if type(item) is not dict:
                raise ProvenanceError(f"must be a JSON object, got {json_name(item)}")
            if not _READING_KEYS.issuperset(item):
                raise ProvenanceError(f"unknown field {min(item.keys() - _READING_KEYS)!r}")
            sensor_id, timestamp, values = item.get("sensor_id"), item.get("timestamp"), item.get("values")
            if type(sensor_id) is not str or not sensor_id:
                raise ProvenanceError(f"field 'sensor_id' must be a non-empty JSON string, got {sensor_id!r}")
            if type(timestamp) not in _NUMBERS:
                raise ProvenanceError(f"field 'timestamp' must be a JSON number, got {json_name(timestamp)}")
            if type(values) is not dict or "" in values:
                raise ProvenanceError(f"field 'values' must be a JSON object of named values, got {values!r}")
            if "location" in item:
                location = item["location"]
                if type(location) is not list or len(location) != 2 or not _NUMBERS.issuperset(map(type, location)):
                    raise ProvenanceError(f"field 'location' must be two JSON numbers, got {location!r}")
                if location != place:  # a set is mostly one place: range-check it once
                    try:
                        GeoPoint(*location)
                    except PassError as error:
                        raise ProvenanceError(f"field 'location': {error}") from None
                    place = location
            if not _PLAIN.issuperset(map(type, values.values())):
                if canonical is items:
                    canonical = list(items)
                canonical[index] = {**item, "values": {name: _stored_value(name, raw) for name, raw in values.items()}}
        except PassError as error:
            raise ProvenanceError(f"reading {index}: {error}") from None
    return canonical_json(canonical).encode("ascii")


def _stored_value(name: str, raw):
    """The stored JSON form of one received value that is not plain."""
    if type(raw) in _PLAIN:
        return raw
    try:
        if type(raw) is dict and type(raw.get("items", [])) is not list:
            raise ProvenanceError("'items' must be a JSON array")  # else a string decodes to its characters
        value = coerce_value(value_from_json(raw))
        for part in value if type(value) is tuple else (value,):
            fields = _NUMBER_FIELDS.get(type(part), ())
            if not _NUMBERS.issuperset(type(getattr(part, field)) for field in fields):
                raise ProvenanceError(f"a tagged {type(part).__name__}'s {' and '.join(fields)} must be JSON numbers")
        return value_to_json(value)
    except (PassError, KeyError, TypeError) as error:  # a member missing, or a place of strings
        raise ProvenanceError(f"field 'values': value {name!r}: {error}") from None


def readings_from_json(items) -> List[SensorReading]:
    """Inverse of :func:`readings_to_json`; malformed input raises."""
    readings = []
    for item in items:
        location = None
        if "location" in item:
            location = GeoPoint(item["location"][0], item["location"][1])
        readings.append(
            SensorReading(
                sensor_id=item["sensor_id"],
                timestamp=Timestamp(item["timestamp"]),
                values={key: value_from_json(value) for key, value in item["values"].items()},
                location=location,
            )
        )
    return readings


class TupleSet:
    """A named collection of sensor readings.

    A tuple set couples the readings themselves with the
    :class:`ProvenanceRecord` that describes -- and *names* -- them.  The
    record's :class:`~repro.core.provenance.PName` is the identity used
    by every index and architecture model in the library.
    """

    __slots__ = ("_decoded", "_provenance", "_payload")

    def __init__(
        self,
        readings: Sequence[SensorReading],
        provenance: ProvenanceRecord,
    ) -> None:
        if not isinstance(provenance, ProvenanceRecord):
            raise ProvenanceError("a TupleSet requires a ProvenanceRecord")
        self._decoded: Optional[List[SensorReading]] = list(readings)
        for reading in self._decoded:
            if not isinstance(reading, SensorReading):
                raise ProvenanceError(f"expected SensorReading, got {reading!r}")
        self._provenance = provenance
        self._payload: Optional[bytes] = None

    @classmethod
    def from_payload(cls, payload: bytes, provenance: ProvenanceRecord) -> "TupleSet":
        """A tuple set whose readings are the stored payload ``payload``.

        ``payload`` is what :func:`readings_payload_from_json` returns.  The
        readings are decoded from it (by :func:`readings_from_json`) the
        first time something reads them; storing the set never does.
        """
        tuple_set = cls((), provenance)
        tuple_set._decoded = None
        tuple_set._payload = payload
        return tuple_set

    @property
    def payload(self) -> Optional[bytes]:
        """The stored payload the set was built from, or None (see :meth:`from_payload`)."""
        return self._payload

    @property
    def _readings(self) -> List[SensorReading]:
        if self._decoded is None:  # built from a payload, never read so far
            self._decoded = readings_from_json(json.loads(self._payload))
        return self._decoded

    # ------------------------------------------------------------------
    # Identity and provenance
    # ------------------------------------------------------------------
    @property
    def provenance(self) -> ProvenanceRecord:
        """The provenance record that names this tuple set."""
        return self._provenance

    @property
    def pname(self) -> PName:
        """Shorthand for ``self.provenance.pname()``."""
        return self._provenance.pname()

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------
    @property
    def readings(self) -> List[SensorReading]:
        """A copy of the readings in this tuple set."""
        return list(self._readings)

    def __len__(self) -> int:
        return len(self._readings)

    def __iter__(self) -> Iterator[SensorReading]:
        return iter(self._readings)

    def is_empty(self) -> bool:
        """True when the tuple set holds no readings (metadata-only sets)."""
        return not self._readings

    def time_span(self) -> Optional[tuple]:
        """(earliest, latest) timestamps of the readings, or None if empty."""
        if not self._readings:
            return None
        seconds = [reading.timestamp.seconds for reading in self._readings]
        return (Timestamp(min(seconds)), Timestamp(max(seconds)))

    def sensors(self) -> List[str]:
        """Sorted list of distinct sensor ids contributing readings."""
        return sorted({reading.sensor_id for reading in self._readings})

    def size_bytes(self) -> int:
        """Approximate serialised size of the readings (not the provenance)."""
        return sum(reading.size_bytes() for reading in self._readings)

    def centroid(self) -> Optional[GeoPoint]:
        """Mean location of located readings, or None when none carry one."""
        located = [reading.location for reading in self._readings if reading.location]
        if not located:
            return None
        lat = sum(point.latitude for point in located) / len(located)
        lon = sum(point.longitude for point in located) / len(located)
        return GeoPoint(lat, lon)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def derive(
        self,
        readings: Sequence[SensorReading],
        attributes: Mapping[str, AttributeValue],
        agent: Optional[Agent] = None,
    ) -> "TupleSet":
        """Create a tuple set derived from this one.

        The new set's provenance lists this set's PName as an ancestor
        and the transforming ``agent``; this is how pipeline operators
        build lineage chains.
        """
        derived_record = self._provenance.derive(attributes, agent=agent)
        return TupleSet(readings, derived_record)

    def summary(self) -> Dict[str, object]:
        """A small dict of facts used by reports and examples."""
        span = self.time_span()
        return {
            "pname": self.pname.short,
            "readings": len(self._readings),
            "sensors": len(self.sensors()),
            "bytes": self.size_bytes(),
            "start": span[0].seconds if span else None,
            "end": span[1].seconds if span else None,
            "raw": self._provenance.is_raw(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TupleSet({self.pname.short}, {len(self._readings)} readings)"


class TupleSetWindower:
    """Groups a stream of readings into fixed-duration tuple sets.

    Parameters
    ----------
    window_seconds:
        Width of each time window.
    base_attributes:
        Attributes stamped on every produced tuple set (sensor network
        name, domain, owner, location ...).
    agent:
        The agent recorded as the producer (usually the sensor network
        itself, e.g. ``Agent("sensor-network", "congestion-zone", "v2")``).
    attribute_fn:
        Optional callable ``(window_start, readings) -> dict`` adding
        per-window attributes (e.g. the window's mean value).
    """

    def __init__(
        self,
        window_seconds: float,
        base_attributes: Mapping[str, AttributeValue],
        agent: Optional[Agent] = None,
        attribute_fn: Optional[Callable[[Timestamp, Sequence[SensorReading]], dict]] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ProvenanceError("window_seconds must be positive")
        self._window_seconds = float(window_seconds)
        self._base_attributes = ensure_attribute_map(dict(base_attributes))
        self._agent = agent
        self._attribute_fn = attribute_fn

    @property
    def window_seconds(self) -> float:
        """Width of each produced window, in seconds."""
        return self._window_seconds

    def window_start(self, timestamp: Timestamp) -> Timestamp:
        """The start of the window containing ``timestamp``."""
        index = int(timestamp.seconds // self._window_seconds)
        return Timestamp(index * self._window_seconds)

    def window(self, readings: Iterable[SensorReading]) -> List[TupleSet]:
        """Partition ``readings`` into tuple sets, one per non-empty window.

        Readings are bucketed by window start; each bucket becomes one
        tuple set whose provenance includes the window boundaries, the
        base attributes and any attributes computed by ``attribute_fn``.
        Windows are returned in chronological order.
        """
        buckets: Dict[float, List[SensorReading]] = {}
        for reading in readings:
            start = self.window_start(reading.timestamp)
            buckets.setdefault(start.seconds, []).append(reading)

        tuple_sets: List[TupleSet] = []
        for start_seconds in sorted(buckets):
            bucket = sorted(buckets[start_seconds], key=lambda r: r.timestamp.seconds)
            start = Timestamp(start_seconds)
            attributes = dict(self._base_attributes)
            attributes["window_start"] = start
            attributes["window_end"] = Timestamp(start_seconds + self._window_seconds)
            attributes["reading_count"] = len(bucket)
            if self._attribute_fn is not None:
                attributes.update(ensure_attribute_map(self._attribute_fn(start, bucket)))
            agents = (self._agent,) if self._agent is not None else ()
            record = ProvenanceRecord(attributes=attributes, agents=agents)
            tuple_sets.append(TupleSet(bucket, record))
        return tuple_sets
