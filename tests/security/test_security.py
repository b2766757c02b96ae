"""Tests for privacy aggregation and access-control policies."""

from __future__ import annotations

import pytest

from repro.core import AttributeEquals, PassStore, ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.errors import ConfigurationError, PolicyError
from repro.security import AccessRule, PolicyEngine, Principal, PrivacyAggregator
from repro.sensors.workloads import MedicalWorkload


def _patient_set(patient: str, incident: str = "mci-1", heart_rate: float = 90.0):
    readings = [
        SensorReading(f"{patient}-spo2", Timestamp(float(i)), {"heart_rate": heart_rate + i})
        for i in range(3)
    ]
    record = ProvenanceRecord(
        {
            "domain": "medical",
            "patient": patient,
            "emt": "emt-00",
            "incident": incident,
            "window_start": Timestamp(0.0),
            "window_end": Timestamp(60.0),
        }
    )
    return TupleSet(readings, record)


class TestPrincipalAndRules:
    def test_principal_validation(self):
        with pytest.raises(PolicyError):
            Principal("", "doctor")

    def test_rule_validation(self):
        with pytest.raises(PolicyError):
            AccessRule("")

    def test_rule_governs_by_predicate(self):
        rule = AccessRule("medical-only", applies_to=AttributeEquals("domain", "medical"))
        medical = _patient_set("p1").provenance
        other = ProvenanceRecord({"domain": "traffic"})
        assert rule.governs(medical.pname(), medical)
        assert not rule.governs(other.pname(), other)

    def test_rule_permits_by_role_and_purpose(self):
        rule = AccessRule("r", allowed_roles={"doctor"}, allowed_purposes={"treatment"})
        assert rule.permits(Principal("d", "doctor", purposes={"treatment"}))
        assert not rule.permits(Principal("d", "doctor", purposes={"billing"}))
        assert not rule.permits(Principal("n", "journalist", purposes={"treatment"}))


class TestPolicyEngine:
    @pytest.fixture
    def engine(self):
        return PolicyEngine(
            rules=[
                AccessRule(
                    "treating-clinicians",
                    applies_to=AttributeEquals("domain", "medical"),
                    allowed_roles={"doctor", "emt"},
                ),
                AccessRule(
                    "public-health-aggregates",
                    applies_to=AttributeEquals("domain", "medical"),
                    allowed_roles={"researcher"},
                    aggregate_only=True,
                ),
            ],
            protected_domains={"medical"},
        )

    def test_clinician_allowed_raw_access(self, engine):
        record = _patient_set("p1").provenance
        decision = engine.check(Principal("dr-x", "doctor"), record.pname(), record)
        assert decision.allowed and not decision.aggregate_only
        assert decision.rule == "treating-clinicians"

    def test_researcher_gets_aggregate_only(self, engine):
        record = _patient_set("p1").provenance
        decision = engine.check(Principal("r", "researcher"), record.pname(), record)
        assert decision.allowed and decision.aggregate_only

    def test_unmatched_principal_denied_for_protected_domain(self, engine):
        record = _patient_set("p1").provenance
        decision = engine.check(Principal("journalist", "press"), record.pname(), record)
        assert not decision.allowed

    def test_unprotected_domain_default_allows(self, engine):
        record = ProvenanceRecord({"domain": "traffic", "city": "london"})
        decision = engine.check(Principal("anyone", "public"), record.pname(), record)
        assert decision.allowed

    def test_deny_rule_wins(self):
        engine = PolicyEngine(
            rules=[
                AccessRule(
                    "embargoed",
                    applies_to=AttributeEquals("incident", "mci-1"),
                    allowed_roles={"press"},
                    allow=False,
                ),
            ]
        )
        record = _patient_set("p1").provenance
        decision = engine.check(Principal("reporter", "press"), record.pname(), record)
        assert not decision.allowed

    def test_enforce_raises_on_denial(self, engine):
        record = _patient_set("p1").provenance
        with pytest.raises(PolicyError):
            engine.enforce(Principal("journalist", "press"), record.pname(), record)

    def test_audit_log_records_decisions(self, engine):
        record = _patient_set("p1").provenance
        engine.check(Principal("dr-x", "doctor"), record.pname(), record)
        engine.check(Principal("journalist", "press"), record.pname(), record)
        log = engine.audit_log()
        assert len(log) == 2
        assert engine.denials() == 1
        assert log[0]["principal"] == "dr-x"


class TestPrivacyAggregator:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            PrivacyAggregator(group_by=[], identifying_attributes=["patient"])
        with pytest.raises(ConfigurationError):
            PrivacyAggregator(group_by=["incident"], identifying_attributes=[])
        with pytest.raises(ConfigurationError):
            PrivacyAggregator(group_by=["incident"], identifying_attributes=["patient"], k=0)

    def test_small_groups_suppressed(self):
        aggregator = PrivacyAggregator(
            group_by=["incident"], identifying_attributes=["patient", "emt"], k=3
        )
        report = aggregator.aggregate([_patient_set("p1"), _patient_set("p2")])
        assert report.groups_published == 0
        assert report.suppressed_groups == 1

    def test_large_groups_published_without_identities(self):
        aggregator = PrivacyAggregator(
            group_by=["incident"], identifying_attributes=["patient", "emt"], k=3
        )
        members = [_patient_set(f"p{i}") for i in range(4)]
        report = aggregator.aggregate(members)
        assert report.groups_published == 1
        aggregate = report.aggregates[0]
        assert aggregate.provenance.get("patient") is None and aggregate.provenance.get("emt") is None
        assert aggregate.provenance.get("population") == 4
        assert aggregate.provenance.get("k") == 3
        assert aggregate.provenance.get("stage") == "privacy-aggregate"

    def test_aggregate_provenance_lists_every_member(self):
        aggregator = PrivacyAggregator(
            group_by=["incident"], identifying_attributes=["patient"], k=2
        )
        members = [_patient_set(f"p{i}") for i in range(3)]
        report = aggregator.aggregate(members)
        ancestors = set(report.aggregates[0].provenance.ancestors)
        assert ancestors == {ts.pname for ts in members}

    def test_summary_values_computed(self):
        aggregator = PrivacyAggregator(
            group_by=["incident"], identifying_attributes=["patient"], k=2
        )
        members = [_patient_set("p1", heart_rate=80.0), _patient_set("p2", heart_rate=100.0)]
        aggregate = aggregator.aggregate(members).aggregates[0]
        summary = aggregate.readings[0]
        assert summary.value("heart_rate_count") == 6
        assert 80.0 < summary.value("heart_rate_mean") < 103.0

    def test_groups_split_by_group_by_attribute(self):
        aggregator = PrivacyAggregator(
            group_by=["incident"], identifying_attributes=["patient"], k=2
        )
        members = [
            _patient_set("p1", incident="mci-1"),
            _patient_set("p2", incident="mci-1"),
            _patient_set("p3", incident="mci-2"),
        ]
        report = aggregator.aggregate(members)
        assert report.groups_published == 1
        assert report.suppressed_groups == 1

    def test_end_to_end_with_medical_workload_and_store(self):
        workload = MedicalWorkload(seed=3, patients=4)
        raw = workload.tuple_sets(hours=0.25)
        aggregator = PrivacyAggregator(
            group_by=["incident"], identifying_attributes=["patient", "emt"], k=3
        )
        report = aggregator.aggregate(raw)
        assert report.groups_published == 1
        store = PassStore()
        for tuple_set in raw:
            store.ingest(tuple_set)
        for aggregate in report.aggregates:
            store.ingest(aggregate)
        published = store.query(AttributeEquals("stage", "privacy-aggregate"))
        assert len(published) == 1
        # The aggregate's ancestry reaches back to the individual patients'
        # raw windows without exposing them in its own attributes.
        assert store.ancestors(published[0])
