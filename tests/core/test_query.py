"""Tests for the query predicates and query evaluation."""

from __future__ import annotations

import pytest

from repro.core import (
    TRUE,
    Agent,
    AgentIs,
    AncestorOf,
    And,
    Annotation,
    AnnotationMatches,
    AttributeContains,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    DerivedFrom,
    GeoPoint,
    IsRaw,
    NearLocation,
    Not,
    Or,
    ProvenanceRecord,
    Query,
    Timestamp,
)
from repro.errors import QueryError


@pytest.fixture
def record():
    return ProvenanceRecord(
        {
            "domain": "traffic",
            "city": "london",
            "vehicle_count": 42,
            "window_start": Timestamp(600.0),
            "location": GeoPoint(51.5074, -0.1278),
            "description": "Congestion Zone cameras",
        },
        agents=(Agent("program", "sharpen", "2.0"),),
        annotations=(Annotation("sensor-replaced", "cam-07"),),
    )


@pytest.fixture
def pname(record):
    return record.pname()


class TestAttributePredicates:
    def test_equals_matches(self, record, pname):
        assert AttributeEquals("city", "london").matches(pname, record)
        assert not AttributeEquals("city", "boston").matches(pname, record)

    def test_equals_is_type_strict(self, record, pname):
        assert not AttributeEquals("vehicle_count", 42.0).matches(pname, record)

    def test_equals_missing_attribute(self, record, pname):
        assert not AttributeEquals("missing", 1).matches(pname, record)

    def test_range_inclusive_bounds(self, record, pname):
        assert AttributeRange("vehicle_count", low=42, high=42).matches(pname, record)
        assert not AttributeRange("vehicle_count", low=42, high=42, include_low=False).matches(
            pname, record
        )

    def test_range_half_open(self, record, pname):
        assert AttributeRange("vehicle_count", low=10).matches(pname, record)
        assert AttributeRange("vehicle_count", high=100).matches(pname, record)
        assert not AttributeRange("vehicle_count", high=10).matches(pname, record)

    def test_range_needs_a_bound(self):
        with pytest.raises(QueryError):
            AttributeRange("x")

    def test_range_on_timestamps(self, record, pname):
        predicate = AttributeRange("window_start", low=Timestamp(0.0), high=Timestamp(3600.0))
        assert predicate.matches(pname, record)

    def test_range_incompatible_type_is_false(self, record, pname):
        assert not AttributeRange("city", low=1, high=5).matches(pname, record)

    def test_contains_case_insensitive(self, record, pname):
        assert AttributeContains("description", "congestion zone").matches(pname, record)
        assert not AttributeContains("description", "weather").matches(pname, record)

    def test_contains_non_string_is_false(self, record, pname):
        assert not AttributeContains("vehicle_count", "4").matches(pname, record)

    def test_in_predicate(self, record, pname):
        assert AttributeIn("city", ("boston", "london")).matches(pname, record)
        assert not AttributeIn("city", ("boston", "seattle")).matches(pname, record)

    def test_exists(self, record, pname):
        assert AttributeExists("location").matches(pname, record)
        assert not AttributeExists("nope").matches(pname, record)

    def test_near_location(self, record, pname):
        near = NearLocation("location", GeoPoint(51.50, -0.12), radius_km=5.0)
        far = NearLocation("location", GeoPoint(42.36, -71.06), radius_km=5.0)
        assert near.matches(pname, record)
        assert not far.matches(pname, record)

    def test_agent_is(self, record, pname):
        assert AgentIs("sharpen").matches(pname, record)
        assert AgentIs("sharpen", kind="program", version="2.0").matches(pname, record)
        assert not AgentIs("sharpen", version="1.0").matches(pname, record)
        assert not AgentIs("blur").matches(pname, record)

    def test_annotation_matches(self, record, pname):
        assert AnnotationMatches("sensor-replaced").matches(pname, record)
        assert AnnotationMatches("sensor-replaced", "cam-07").matches(pname, record)
        assert not AnnotationMatches("sensor-replaced", "cam-99").matches(pname, record)

    def test_is_raw(self, record, pname):
        derived = record.derive({"stage": "x"})
        assert IsRaw(True).matches(pname, record)
        assert IsRaw(False).matches(derived.pname(), derived)


class TestCombinators:
    def test_and_or_not(self, record, pname):
        in_london = AttributeEquals("city", "london")
        is_weather = AttributeEquals("domain", "weather")
        assert (in_london & ~is_weather).matches(pname, record)
        assert (in_london | is_weather).matches(pname, record)
        assert not (in_london & is_weather).matches(pname, record)

    def test_empty_combinators_rejected(self):
        with pytest.raises(QueryError):
            And(())
        with pytest.raises(QueryError):
            Or(())

    def test_requires_lineage_propagates(self, pname):
        plain = AttributeEquals("a", 1)
        lineage = DerivedFrom(pname)
        assert not plain.requires_lineage
        assert lineage.requires_lineage
        assert And((plain, lineage)).requires_lineage
        assert Or((plain, lineage)).requires_lineage
        assert Not(lineage).requires_lineage

    def test_attributes_referenced_collected(self, pname):
        predicate = And((AttributeEquals("a", 1), Or((AttributeRange("b", low=0), Not(AttributeExists("c"))))))
        assert sorted(predicate.attributes_referenced()) == ["a", "b", "c"]


class TestCombinatorOperators:
    """The ``&`` / ``|`` / ``~`` overloads build the right predicate tree."""

    def test_and_operator_builds_And(self):
        left = AttributeEquals("city", "london")
        right = AttributeEquals("domain", "traffic")
        combined = left & right
        assert isinstance(combined, And)
        assert combined.parts == (left, right)

    def test_or_operator_builds_Or(self):
        left = AttributeEquals("city", "london")
        right = AttributeEquals("city", "boston")
        combined = left | right
        assert isinstance(combined, Or)
        assert combined.parts == (left, right)

    def test_invert_operator_builds_Not(self):
        part = AttributeExists("patient")
        negated = ~part
        assert isinstance(negated, Not)
        assert negated.part is part

    def test_double_negation_wraps_twice(self, record, pname):
        part = AttributeEquals("city", "london")
        twice = ~~part
        assert isinstance(twice, Not) and isinstance(twice.part, Not)
        assert twice.matches(pname, record) == part.matches(pname, record)

    def test_operators_nest_and_evaluate(self, record, pname):
        predicate = (AttributeEquals("city", "london") | AttributeEquals("city", "boston")) & ~(
            AttributeEquals("domain", "weather")
        )
        assert isinstance(predicate, And)
        assert predicate.matches(pname, record)

    def test_operators_propagate_requires_lineage(self, pname):
        lineage = DerivedFrom(pname)
        plain = AttributeEquals("a", 1)
        assert (plain & lineage).requires_lineage
        assert (plain | lineage).requires_lineage
        assert (~lineage).requires_lineage
        assert not (plain & plain).requires_lineage


class TestLineagePredicates:
    def test_lineage_without_oracle_raises(self, record, pname):
        with pytest.raises(QueryError):
            DerivedFrom(pname).matches(pname, record)

    def test_derived_from_with_oracle(self, record, pname):
        class Oracle:
            def is_ancestor(self, ancestor, descendant):
                return ancestor.digest == pname.digest

        child = record.derive({"stage": "x"})
        assert DerivedFrom(pname).matches(child.pname(), child, Oracle())
        assert not DerivedFrom(pname).matches(pname, record, Oracle())
        assert DerivedFrom(pname, include_self=True).matches(pname, record, Oracle())

    def test_ancestor_of_with_oracle(self, record, pname):
        child = record.derive({"stage": "x"})

        class Oracle:
            def is_ancestor(self, ancestor, descendant):
                return ancestor.digest == pname.digest and descendant.digest == child.pname().digest

        assert AncestorOf(child.pname()).matches(pname, record, Oracle())
        assert not AncestorOf(child.pname()).matches(child.pname(), child, Oracle())


class TestQueryEvaluation:
    def _candidates(self):
        records = [
            ProvenanceRecord({"domain": "traffic", "city": city, "rank": rank})
            for rank, city in enumerate(["london", "boston", "seattle"])
        ]
        return [(record.pname(), record) for record in records]

    def test_true_matches_everything(self):
        candidates = self._candidates()
        assert len(Query(TRUE).evaluate(candidates)) == 3

    def test_limit_applied(self):
        candidates = self._candidates()
        assert len(Query(TRUE, limit=2).evaluate(candidates)) == 2

    def test_limit_must_be_positive(self):
        with pytest.raises(QueryError):
            Query(TRUE, limit=0)

    def test_order_by(self):
        candidates = self._candidates()
        ordered = Query(TRUE, order_by="city").evaluate(candidates)
        cities = [dict(candidates)[p].get("city") for p in ordered]
        assert cities == sorted(cities)

    def test_order_by_orders_by_value_with_ties_by_digest(self):
        """Not by canonical text, which put ``10`` and ``100`` before ``2``
        and ``1.5`` before ``-5``."""
        values = [9, 10, 100, 2, -5, 1.5, 1, 1.0, True, Timestamp(1.0), (3, 1), "ten"]
        records = [ProvenanceRecord({"serial": at, "n": value}) for at, value in enumerate(values)]
        records.append(ProvenanceRecord({"serial": len(values)}))  # no ``n``: last
        candidates = [(record.pname(), record) for record in records]
        ordered = [dict(candidates)[p].get("n") for p in Query(TRUE, order_by="n").evaluate(candidates)]
        assert ordered[:2] == [(3, 1), -5] and ordered[6:] == [1.5, 2, 9, 10, 100, "ten", None]
        tied = Query(TRUE, order_by="n").evaluate(candidates)[2:6]
        assert sorted(repr(value) for value in ordered[2:6]) == sorted(map(repr, [1, 1.0, True, Timestamp(1.0)]))
        assert tied == sorted(tied, key=lambda pname: pname.digest)
        assert Query(TRUE, order_by="n", limit=3).evaluate(candidates) == Query(TRUE, order_by="n").evaluate(candidates)[:3]

    def test_order_by_missing_attribute_sorts_last(self):
        records = [
            ProvenanceRecord({"domain": "traffic", "city": "london"}),
            ProvenanceRecord({"domain": "traffic"}),
        ]
        candidates = [(record.pname(), record) for record in records]
        ordered = Query(TRUE, order_by="city").evaluate(candidates)
        assert ordered[0] == records[0].pname()

    def test_exclude_removed(self):
        candidates = self._candidates()
        removed = {candidates[0][0].digest}
        results = Query(TRUE, include_removed=False).evaluate(
            candidates, removed=lambda p: p.digest in removed
        )
        assert candidates[0][0] not in results
        assert len(results) == 2
