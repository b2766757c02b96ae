"""Tests for typed attribute values, canonical encoding and comparison."""

from __future__ import annotations

import math
from datetime import datetime, timezone

import pytest

from repro.core.attributes import (
    GeoPoint,
    Timestamp,
    canonical_encode,
    coerce_value,
    compare_values,
    ensure_attribute_map,
    value_matches,
    values_equal,
)
from repro.errors import ConfigurationError


class TestGeoPoint:
    def test_valid_point(self):
        point = GeoPoint(51.5, -0.12)
        assert point.latitude == 51.5
        assert point.longitude == -0.12

    def test_latitude_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoPoint(91.0, 0.0)

    def test_longitude_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            GeoPoint(0.0, -181.0)

    def test_distance_to_self_is_zero(self):
        point = GeoPoint(42.36, -71.06)
        assert point.distance_km(point) == pytest.approx(0.0, abs=1e-9)

    def test_london_to_boston_distance(self):
        london = GeoPoint(51.5074, -0.1278)
        boston = GeoPoint(42.3601, -71.0589)
        assert london.distance_km(boston) == pytest.approx(5265, rel=0.02)

    def test_distance_is_symmetric(self):
        a = GeoPoint(10.0, 20.0)
        b = GeoPoint(-30.0, 140.0)
        assert a.distance_km(b) == pytest.approx(b.distance_km(a))


class TestTimestamp:
    def test_ordering(self):
        assert Timestamp(1.0) < Timestamp(2.0)

    def test_add_seconds(self):
        assert (Timestamp(10.0) + 5).seconds == 15.0

    def test_subtract_timestamp_gives_seconds(self):
        assert Timestamp(30.0) - Timestamp(10.0) == 20.0

    def test_subtract_number(self):
        assert Timestamp(30.0) - 10.0 == 20.0

    def test_datetime_round_trip(self):
        dt = datetime(2005, 4, 5, 12, 0, 0, tzinfo=timezone.utc)
        ts = Timestamp.from_datetime(dt)
        assert ts.seconds == dt.timestamp()

    def test_naive_datetime_treated_as_utc(self):
        naive = datetime(2005, 4, 5, 12, 0, 0)
        aware = datetime(2005, 4, 5, 12, 0, 0, tzinfo=timezone.utc)
        assert Timestamp.from_datetime(naive).seconds == Timestamp.from_datetime(aware).seconds


class TestCanonicalEncoding:
    def test_int_and_float_encode_differently(self):
        assert canonical_encode(1) != canonical_encode(1.0)

    def test_bool_and_int_encode_differently(self):
        assert canonical_encode(True) != canonical_encode(1)

    def test_string_number_differs_from_number(self):
        assert canonical_encode("1") != canonical_encode(1)

    def test_same_value_encodes_identically(self):
        assert canonical_encode(GeoPoint(1.0, 2.0)) == canonical_encode(GeoPoint(1.0, 2.0))

    def test_list_encoding_preserves_order(self):
        assert canonical_encode(("a", "b")) != canonical_encode(("b", "a"))

    def test_unsupported_type_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_encode(object())  # type: ignore[arg-type]


class TestCoercion:
    def test_datetime_coerced_to_timestamp(self):
        value = coerce_value(datetime(2005, 1, 1, tzinfo=timezone.utc))
        assert isinstance(value, Timestamp)

    def test_list_coerced_to_tuple(self):
        assert coerce_value([1, 2, 3]) == (1, 2, 3)

    def test_nested_list_rejected(self):
        with pytest.raises(ConfigurationError):
            coerce_value([[1, 2], [3]])

    def test_unsupported_object_rejected(self):
        with pytest.raises(ConfigurationError):
            coerce_value({"a": 1})


class TestComparison:
    def test_numeric_ordering(self):
        assert compare_values(1, 2.5) == -1
        assert compare_values(3, 3.0) == 0
        assert compare_values(4, 2) == 1

    def test_timestamp_compares_with_numbers(self):
        assert compare_values(Timestamp(5.0), 10) == -1

    def test_string_ordering(self):
        assert compare_values("apple", "banana") == -1

    def test_cross_kind_comparison_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_values("apple", 3)

    def test_values_equal_is_type_strict(self):
        assert values_equal(2, 2)
        assert not values_equal(2, 2.0)

    def test_value_matches(self):
        assert value_matches("b", ["a", "b", "c"])
        assert not value_matches("d", ["a", "b", "c"])


class TestAttributeMaps:
    def test_ensure_map_coerces_values(self):
        result = ensure_attribute_map({"count": [1, 2]})
        assert result["count"] == (1, 2)

    def test_ensure_map_rejects_empty_keys(self):
        with pytest.raises(ConfigurationError):
            ensure_attribute_map({"": 1})

    def test_ensure_map_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            ensure_attribute_map([("a", 1)])  # type: ignore[arg-type]

    def test_ensure_map_does_not_mutate_input(self):
        original = {"a": [1]}
        ensure_attribute_map(original)
        assert original == {"a": [1]}
