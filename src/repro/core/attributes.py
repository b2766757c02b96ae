"""Typed attribute values used throughout provenance records.

Section II-A of the paper argues that a data set's name should not be an
unstructured string but "a collection of name-value pairs".  This module
defines the value side of those pairs: a small set of concrete types
(strings, integers, floats, timestamps, geographic points and lists of
those), a canonical text encoding used when hashing provenance into a
stable identity, and comparison predicates used by the query engine.

The types are deliberately simple and self-describing so that different
application domains (traffic, weather, medicine, ...) can define their
own provenance schemas without the library having to know about them --
the "community-specific standards" the paper anticipates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Union

from repro.errors import ConfigurationError

__all__ = [
    "GeoPoint",
    "Timestamp",
    "AttributeValue",
    "canonical_encode",
    "coerce_value",
    "values_equal",
    "value_matches",
    "compare_values",
]


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A geographic coordinate (latitude, longitude) in decimal degrees.

    Sensor data is "location-specific" (Section I); nearly every workload
    generator in :mod:`repro.sensors.workloads` stamps its readings and
    tuple sets with one of these.
    """

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.latitude <= 90.0):
            raise ConfigurationError(f"latitude out of range: {self.latitude}")
        if not (-180.0 <= self.longitude <= 180.0):
            raise ConfigurationError(f"longitude out of range: {self.longitude}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres (haversine)."""
        radius_km = 6371.0
        lat1, lon1 = math.radians(self.latitude), math.radians(self.longitude)
        lat2, lon2 = math.radians(other.latitude), math.radians(other.longitude)
        dlat = lat2 - lat1
        dlon = lon2 - lon1
        a = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
        return 2.0 * radius_km * math.asin(min(1.0, math.sqrt(a)))

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.latitude:.6f},{self.longitude:.6f})"


@dataclass(frozen=True, order=True)
class Timestamp:
    """A point in time, stored as seconds since the Unix epoch (UTC).

    A thin wrapper rather than :class:`datetime.datetime` so that
    canonical encoding, ordering and arithmetic are unambiguous and so
    simulated clocks (which often start at zero) are first-class.
    """

    seconds: float

    @classmethod
    def from_datetime(cls, dt: datetime) -> "Timestamp":
        """Build a timestamp from a (timezone-aware or naive-UTC) datetime."""
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return cls(dt.timestamp())

    def __add__(self, delta_seconds: float) -> "Timestamp":
        return Timestamp(self.seconds + float(delta_seconds))

    def __sub__(self, other: Union["Timestamp", float]) -> float:
        if isinstance(other, Timestamp):
            return self.seconds - other.seconds
        return self.seconds - float(other)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"t{self.seconds:.3f}"


# The closed set of value types an attribute may carry.  Lists are
# allowed one level deep (e.g. a list of contributing sensor ids).
ScalarValue = Union[str, int, float, bool, Timestamp, GeoPoint]
AttributeValue = Union[ScalarValue, tuple]


_TYPE_TAGS = {
    str: "s",
    bool: "b",  # must precede int: bool is a subclass of int
    int: "i",
    float: "f",
    Timestamp: "t",
    GeoPoint: "g",
}


def _encode_scalar(value: ScalarValue) -> str:
    """Encode a single scalar with a type tag so 1, 1.0 and "1" differ."""
    if isinstance(value, bool):
        return f"b:{int(value)}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, Timestamp):
        return f"t:{value.seconds!r}"
    if isinstance(value, GeoPoint):
        return f"g:{value.latitude!r},{value.longitude!r}"
    raise ConfigurationError(f"unsupported attribute value type: {type(value)!r}")


def canonical_encode(value: AttributeValue) -> str:
    """Return a canonical, type-tagged text encoding of an attribute value.

    The canonical encoding is what gets hashed into a provenance digest
    (:class:`repro.core.provenance.PName`); two values encode identically
    iff they are the same value of the same type.
    """
    if isinstance(value, tuple):
        inner = ";".join(_encode_scalar(item) for item in value)
        return f"l:[{inner}]"
    return _encode_scalar(value)


def coerce_value(raw: object) -> AttributeValue:
    """Coerce a raw Python object into a supported attribute value.

    Lists and tuples of scalars become tuples; datetimes become
    :class:`Timestamp`; unsupported types raise
    :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(raw, (str, bool, int, float, Timestamp, GeoPoint)):
        return raw
    if isinstance(raw, datetime):
        return Timestamp.from_datetime(raw)
    if isinstance(raw, (list, tuple)):
        coerced = []
        for item in raw:
            item = coerce_value(item)
            if isinstance(item, tuple):
                raise ConfigurationError("nested lists are not supported in attribute values")
            coerced.append(item)
        return tuple(coerced)
    raise ConfigurationError(f"unsupported attribute value: {raw!r} ({type(raw).__name__})")


def values_equal(left: AttributeValue, right: AttributeValue) -> bool:
    """Strict equality used by the index: same type tag and same value."""
    return canonical_encode(left) == canonical_encode(right)


def compare_values(left: AttributeValue, right: AttributeValue) -> int:
    """Three-way comparison for *order-compatible* values.

    Returns -1, 0 or 1.  Raises :class:`~repro.errors.ConfigurationError`
    when the two values are not comparable (e.g. a string vs a number),
    because silently ordering across types would make range queries
    return nonsense.
    """
    left_key = _ordering_key(left)
    right_key = _ordering_key(right)
    if left_key[0] != right_key[0]:
        raise ConfigurationError(
            f"cannot order values of different kinds: {left!r} vs {right!r}"
        )
    if left_key < right_key:
        return -1
    if left_key > right_key:
        return 1
    return 0


def _ordering_key(value: AttributeValue):
    if isinstance(value, bool):
        return ("num", float(int(value)))
    if isinstance(value, (int, float)):
        return ("num", float(value))
    if isinstance(value, Timestamp):
        return ("num", float(value.seconds))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, GeoPoint):
        return ("geo", (value.latitude, value.longitude))
    if isinstance(value, tuple):
        return ("list", tuple(_ordering_key(v) for v in value))
    raise ConfigurationError(f"unsupported attribute value type: {type(value)!r}")


def value_matches(value: AttributeValue, candidates: Iterable[AttributeValue]) -> bool:
    """True when ``value`` equals any of ``candidates`` (strict equality)."""
    encoded = canonical_encode(value)
    return any(canonical_encode(candidate) == encoded for candidate in candidates)


def ensure_attribute_map(attributes: dict) -> dict:
    """Validate and coerce a raw ``{name: value}`` mapping.

    Keys must be non-empty strings; values are coerced via
    :func:`coerce_value`.  Returns a new dict and never mutates the
    input.
    """
    if not isinstance(attributes, dict):
        raise ConfigurationError("attributes must be a dict of name -> value")
    result = {}
    for name, raw in attributes.items():
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"attribute names must be non-empty strings, got {name!r}")
        result[name] = coerce_value(raw)
    return result
