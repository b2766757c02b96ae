"""Tests for provenance records, PNames, agents and annotations."""

from __future__ import annotations

import pytest

from repro.core import Agent, Annotation, GeoPoint, PName, ProvenanceRecord, Timestamp, merge_provenance
from repro.errors import ProvenanceError


def _record(**extra):
    attributes = {"domain": "traffic", "city": "london"}
    attributes.update(extra)
    return ProvenanceRecord(attributes)


class TestPName:
    def test_pname_requires_full_digest(self):
        with pytest.raises(ProvenanceError):
            PName("abc")

    def test_short_is_prefix(self):
        record = _record()
        pname = record.pname()
        assert pname.digest.startswith(pname.short)
        assert len(pname.short) == 12

    def test_pnames_are_orderable_and_hashable(self):
        a = _record(x=1).pname()
        b = _record(x=2).pname()
        assert len({a, b}) == 2
        assert sorted([a, b]) == sorted([b, a])


class TestIdentity:
    def test_same_attributes_same_pname(self):
        assert _record().pname() == _record().pname()

    def test_different_attributes_different_pname(self):
        assert _record().pname() != _record(extra="x").pname()

    def test_attribute_order_does_not_matter(self):
        a = ProvenanceRecord({"a": 1, "b": 2})
        b = ProvenanceRecord({"b": 2, "a": 1})
        assert a.pname() == b.pname()

    def test_value_type_matters(self):
        assert ProvenanceRecord({"a": 1}).pname() != ProvenanceRecord({"a": 1.0}).pname()

    def test_ancestors_are_part_of_identity(self):
        parent = _record()
        a = ProvenanceRecord({"stage": "x"}, ancestors=(parent.pname(),))
        b = ProvenanceRecord({"stage": "x"})
        assert a.pname() != b.pname()

    def test_agents_are_part_of_identity(self):
        a = ProvenanceRecord({"stage": "x"}, agents=(Agent("program", "p", "1"),))
        b = ProvenanceRecord({"stage": "x"}, agents=(Agent("program", "p", "2"),))
        assert a.pname() != b.pname()

    def test_annotations_do_not_change_identity(self):
        record = _record()
        before = record.pname()
        record.annotate(Annotation("sensor-replaced", "node-7", author="ops"))
        assert record.pname() == before

    def test_duplicate_ancestors_collapse(self):
        parent = _record().pname()
        record = ProvenanceRecord({"stage": "x"}, ancestors=(parent, parent))
        assert record.ancestors == (parent,)

    def test_equality_and_hash_follow_pname(self):
        assert _record() == _record()
        assert hash(_record()) == hash(_record())


class TestValidation:
    def test_empty_attributes_rejected(self):
        with pytest.raises(ProvenanceError):
            ProvenanceRecord({})

    def test_non_pname_ancestor_rejected(self):
        with pytest.raises(ProvenanceError):
            ProvenanceRecord({"a": 1}, ancestors=("not-a-pname",))  # type: ignore[arg-type]

    def test_non_agent_rejected(self):
        with pytest.raises(ProvenanceError):
            ProvenanceRecord({"a": 1}, agents=("someone",))  # type: ignore[arg-type]

    def test_agent_requires_kind_and_name(self):
        with pytest.raises(ProvenanceError):
            Agent("", "gcc")

    def test_annotation_requires_key(self):
        with pytest.raises(ProvenanceError):
            Annotation("", "value")

    def test_annotate_rejects_non_annotation(self):
        with pytest.raises(ProvenanceError):
            _record().annotate("note")  # type: ignore[arg-type]


class TestDerivation:
    def test_derive_links_ancestor(self):
        parent = _record()
        child = parent.derive({"stage": "filtered"}, agent=Agent("program", "filter", "1.0"))
        assert child.ancestors == (parent.pname(),)
        assert not child.is_raw()
        assert parent.is_raw()

    def test_derive_with_extra_ancestors(self):
        parent = _record()
        other = _record(city="boston")
        child = parent.derive({"stage": "merged"}, extra_ancestors=(other.pname(),))
        assert set(child.ancestors) == {parent.pname(), other.pname()}

    def test_merge_provenance_lists_every_parent(self):
        parents = [_record(city=c) for c in ("london", "boston", "seattle")]
        merged = merge_provenance({"stage": "merged"}, parents, agent=Agent("program", "m", "1"))
        for parent in parents:
            assert parent.pname() in merged.ancestors

    def test_merge_provenance_requires_parents(self):
        with pytest.raises(ProvenanceError):
            merge_provenance({"stage": "merged"}, [])


class TestSerialisation:
    def test_round_trip_preserves_identity(self):
        parent = _record()
        record = ProvenanceRecord(
            {
                "domain": "traffic",
                "window_start": Timestamp(10.0),
                "location": GeoPoint(51.5, -0.1),
                "sensors": ("a", "b"),
                "count": 3,
                "ratio": 0.5,
                "flag": True,
            },
            ancestors=(parent.pname(),),
            agents=(Agent("program", "agg", "2.0", metadata={"window": 300}),),
            annotations=(Annotation("note", "x", author="me", timestamp=5.0),),
        )
        restored = ProvenanceRecord.from_json(record.to_json())
        assert restored.pname() == record.pname()
        assert restored.attributes == record.attributes
        assert restored.ancestors == record.ancestors
        assert len(restored.annotations) == 1

    def test_unknown_serialised_type_rejected(self):
        with pytest.raises(ProvenanceError):
            ProvenanceRecord.from_dict(
                {"attributes": {"a": {"__type__": "mystery"}}, "ancestors": [], "agents": []}
            )


class TestAgent:
    def test_describe_includes_version(self):
        assert Agent("compiler", "gcc", "3.3.3").describe() == "compiler gcc 3.3.3"

    def test_describe_without_version(self):
        assert Agent("person", "alice").describe() == "person alice"

    def test_canonical_is_stable_under_metadata_order(self):
        a = Agent("program", "p", "1", metadata={"a": 1, "b": 2})
        b = Agent("program", "p", "1", metadata={"b": 2, "a": 1})
        assert a.canonical() == b.canonical()
