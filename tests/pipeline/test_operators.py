"""Tests for derivation operators, pipelines, taint analysis and versioning."""

from __future__ import annotations

import pytest

from repro.core import (
    AgentIs,
    AttributeEquals,
    GeoPoint,
    PassStore,
    ProvenanceRecord,
    SensorReading,
    Timestamp,
    TupleSet,
)
from repro.errors import ConfigurationError, UnknownEntityError
from repro.pipeline import (
    AggregateOperator,
    CalibrationOperator,
    FilterOperator,
    MergeOperator,
    Pipeline,
    RollupOperator,
    TaintAnalysis,
    VersionedRepository,
)


def _tuple_set(label: str, values, city="london"):
    readings = [
        SensorReading(f"{label}-s{i}", Timestamp(float(i * 10)), {"speed": value},
                      location=GeoPoint(51.5, -0.12))
        for i, value in enumerate(values)
    ]
    record = ProvenanceRecord(
        {
            "domain": "traffic",
            "network": f"{city}-zone",
            "city": city,
            "label": label,
            "window_start": Timestamp(0.0),
            "window_end": Timestamp(300.0),
        }
    )
    return TupleSet(readings, record)


class TestOperatorBasics:
    def test_operator_requires_name(self):
        with pytest.raises(ConfigurationError):
            FilterOperator("", predicate=lambda r: True)

    def test_derived_attributes_carry_context_and_stage(self):
        source = _tuple_set("a", [10.0, 20.0])
        out = FilterOperator("f", predicate=lambda r: True).apply(source)
        record = out.provenance
        assert record.get("domain") == "traffic"
        assert record.get("network") == "london-zone"
        assert record.get("stage") == "filtered"
        assert record.get("operator") == "f"
        assert record.get("input_count") == 1

    def test_extra_carry_attributes(self):
        source = _tuple_set("a", [10.0])
        out = FilterOperator("f", predicate=lambda r: True, carry_attributes=("city",)).apply(source)
        assert out.provenance.get("city") == "london"

    def test_parameters_recorded_in_agent_and_attributes(self):
        op = FilterOperator("f", predicate=lambda r: True, parameters={"threshold": 5})
        out = op.apply(_tuple_set("a", [1.0]))
        assert out.provenance.get("param_threshold") == 5
        assert op.agent.metadata["threshold"] == 5

    def test_apply_links_single_ancestor(self):
        source = _tuple_set("a", [1.0])
        out = MergeOperator("m").apply(source)
        assert out.provenance.ancestors == (source.pname,)

    def test_apply_many_links_every_ancestor(self):
        sources = [_tuple_set(label, [1.0]) for label in "abc"]
        out = MergeOperator("m").apply_many(sources)
        assert set(out.provenance.ancestors) == {ts.pname for ts in sources}

    def test_apply_many_requires_inputs(self):
        with pytest.raises(ConfigurationError):
            MergeOperator("m").apply_many([])

    def test_applications_counter(self):
        op = MergeOperator("m")
        op.apply(_tuple_set("a", [1.0]))
        op.apply_many([_tuple_set("b", [1.0]), _tuple_set("c", [1.0])])
        assert op.applications == 2


class TestFilterOperator:
    def test_keeps_only_matching_readings(self):
        source = _tuple_set("a", [10.0, 200.0, 30.0])
        out = FilterOperator("plausible", predicate=lambda r: r.value("speed") < 100).apply(source)
        assert len(out) == 2


class TestAggregateOperator:
    def test_summary_statistics(self):
        source = _tuple_set("a", [10.0, 20.0, 30.0])
        out = AggregateOperator("agg").apply(source)
        assert len(out) == 1
        summary = out.readings[0]
        assert summary.value("speed_mean") == pytest.approx(20.0)
        assert summary.value("speed_min") == 10.0
        assert summary.value("speed_max") == 30.0
        assert summary.value("speed_count") == 3

    def test_quantity_restriction(self):
        readings = [
            SensorReading("s", Timestamp(0.0), {"speed": 10.0, "count": 5}),
        ]
        source = TupleSet(readings, ProvenanceRecord({"domain": "traffic", "label": "q"}))
        out = AggregateOperator("agg", quantities=["count"]).apply(source)
        summary = out.readings[0]
        assert summary.value("count_mean") == 5
        assert summary.value("speed_mean") is None

    def test_empty_input_produces_empty_summary(self):
        source = TupleSet([], ProvenanceRecord({"domain": "traffic", "label": "empty"}))
        assert AggregateOperator("agg").apply(source).is_empty()

    def test_non_numeric_values_ignored(self):
        readings = [SensorReading("s", Timestamp(0.0), {"status": "ok", "flag": True})]
        source = TupleSet(readings, ProvenanceRecord({"domain": "traffic", "label": "x"}))
        assert AggregateOperator("agg").apply(source).is_empty()


class TestMergeOperator:
    def test_source_networks_recorded(self):
        a = _tuple_set("a", [1.0], city="london")
        b = _tuple_set("b", [2.0], city="boston")
        out = MergeOperator("amalgamate").apply_many([a, b])
        assert out.provenance.get("source_networks") == ("boston-zone", "london-zone")
        assert len(out) == 2


class TestCalibrationOperator:
    def test_gain_and_offset_applied(self):
        source = _tuple_set("a", [10.0, 20.0])
        out = CalibrationOperator("cal", quantity="speed", gain=2.0, offset=1.0).apply(source)
        assert [r.value("speed") for r in out] == [21.0, 41.0]

    def test_other_quantities_untouched(self):
        readings = [SensorReading("s", Timestamp(0.0), {"speed": 10.0, "count": 3})]
        source = TupleSet(readings, ProvenanceRecord({"domain": "traffic", "label": "c"}))
        out = CalibrationOperator("cal", quantity="speed", offset=5.0).apply(source)
        assert out.readings[0].value("count") == 3
        assert out.readings[0].value("speed") == 15.0


class TestRollupOperator:
    def test_window_boundaries_span_inputs(self):
        def windowed(label, start):
            record = ProvenanceRecord(
                {
                    "domain": "traffic",
                    "label": label,
                    "window_start": Timestamp(start),
                    "window_end": Timestamp(start + 300.0),
                }
            )
            return TupleSet([], record)

        out = RollupOperator("hourly").apply_many([windowed("a", 0.0), windowed("b", 3300.0)])
        assert out.provenance.get("window_start").seconds == 0.0
        assert out.provenance.get("window_end").seconds == 3600.0


class TestPipeline:
    def test_requires_operators_and_inputs(self):
        with pytest.raises(ConfigurationError):
            Pipeline([])
        with pytest.raises(ConfigurationError):
            Pipeline([MergeOperator("m")]).run([])

    def test_stages_chain_and_store_ingests(self):
        store = PassStore()
        inputs = [_tuple_set(label, [10.0, 20.0]) for label in "ab"]
        pipeline = Pipeline(
            [
                FilterOperator("filter", predicate=lambda r: r.value("speed") > 5),
                AggregateOperator("aggregate"),
            ],
            store=store,
        )
        result = pipeline.run(inputs)
        assert result.stages == ["filter", "aggregate"]
        assert result.count() == 4
        assert len(store) == 6  # 2 raw + 4 derived
        final = result.final_outputs()
        assert all(ts.provenance.get("stage") == "aggregated" for ts in final)

    def test_fan_in_stage(self):
        store = PassStore()
        inputs = [_tuple_set(label, [10.0]) for label in "abc"]
        pipeline = Pipeline(
            [MergeOperator("merge"), AggregateOperator("aggregate")],
            store=store,
            fan_in_stages={"merge"},
        )
        result = pipeline.run(inputs)
        assert len(result.outputs_by_stage["merge"]) == 1
        merged = result.outputs_by_stage["merge"][0]
        assert len(merged.provenance.ancestors) == 3

    def test_lineage_depth_matches_stage_count(self):
        store = PassStore()
        inputs = [_tuple_set("a", [10.0])]
        pipeline = Pipeline(
            [
                FilterOperator("s1", predicate=lambda r: True),
                FilterOperator("s2", predicate=lambda r: True),
                FilterOperator("s3", predicate=lambda r: True),
            ],
            store=store,
        )
        result = pipeline.run(inputs)
        final = result.final_outputs()[0]
        assert store.graph.ancestry_depth_distribution() == {0: 1, 1: 1, 2: 1, 3: 1}


class TestTaintAnalysis:
    def _store_with_pipeline(self):
        store = PassStore()
        inputs = [_tuple_set(label, [10.0, 20.0]) for label in "ab"]
        pipeline = Pipeline(
            [
                CalibrationOperator("calibrate", quantity="speed", gain=1.1),
                AggregateOperator("aggregate"),
            ],
            store=store,
        )
        result = pipeline.run(inputs)
        return store, inputs, result

    def test_tainted_by_data(self):
        store, inputs, result = self._store_with_pipeline()
        taint = TaintAnalysis(store)
        tainted = taint.tainted_by_data(inputs[0].pname)
        assert inputs[0].pname in tainted
        assert len(tainted) == 3  # itself + its calibrated + its aggregate
        assert inputs[1].pname not in tainted

    def test_tainted_by_agent(self):
        store, inputs, result = self._store_with_pipeline()
        taint = TaintAnalysis(store)
        tainted = taint.tainted_by_agent("calibrate", kind="program")
        calibrated = store.query(AgentIs("calibrate"))
        assert set(calibrated).issubset(tainted)
        # Aggregates derived from calibrated data are also tainted.
        assert len(tainted) == 4

class TestVersionedRepository:
    @pytest.fixture
    def repo(self):
        repo = VersionedRepository(name="demo")
        t = Timestamp(0.0)
        repo.commit("main.c", ["a", "b"], "alice", t, tags=("Release 1.0",))
        repo.commit("main.c", ["a", "b", "c"], "bob", t + 100)
        repo.commit("main.c", ["a", "c"], "carol", t + 200, tags=("Release 1.1",))
        repo.commit("util.c", ["x"], "alice", t + 50)
        return repo

    def test_commit_validation(self, repo):
        with pytest.raises(ConfigurationError):
            repo.commit("", ["a"], "alice", Timestamp(1.0))

    def test_head_and_as_of(self, repo):
        assert repo.head("main.c").revision == 3
        assert repo.as_of("main.c", Timestamp(150.0)).revision == 2

    def test_as_of_before_creation_raises(self, repo):
        with pytest.raises(UnknownEntityError):
            repo.as_of("util.c", Timestamp(0.0))

    def test_changes_since(self, repo):
        assert [c.revision for c in repo.changes_since("main.c", Timestamp(50.0))] == [2, 3]

    def test_blame_attributes_lines(self, repo):
        origins = {origin.line: origin for origin in repo.blame("main.c")}
        assert origins["a"].revision == 1
        assert origins["c"].revision == 2

    def test_who_removed(self, repo):
        removal = repo.who_removed("main.c", "b")
        assert removal.revision == 3
        assert removal.author == "carol"
        assert repo.who_removed("main.c", "a") is None

    def test_tagged(self, repo):
        assert [c.revision for c in repo.tagged("Release 1.1")] == [3]

    def test_unknown_file_raises(self, repo):
        with pytest.raises(UnknownEntityError):
            repo.head("missing.c")

    def test_revision_lineage_is_full_history(self, repo):
        lineage = repo.revision_lineage("main.c")
        assert len(lineage) == 3

    def test_store_query_by_file(self, repo):
        hits = repo.store.query(AttributeEquals("file", "main.c"))
        assert len(hits) == 3
