"""Tests that every experiment runs and its results have the paper's shape.

These are the "does the reproduction actually reproduce the claims"
tests: each asserts the qualitative relationship the paper states, not
absolute numbers.
"""

from __future__ import annotations

import sys

import pytest
from report_capture import FIXTURE, capture

from repro.core.closure import STRATEGY_NAMES
from repro.eval import run_experiment
from repro.eval.experiments_core import _build_chain_store, _closure_over


@pytest.fixture(scope="module")
def results():
    """Run every experiment once for this module (several take ~1s each)."""
    return {eid: run_experiment(eid) for eid in [f"E{i}" for i in range(1, 15)]}


class TestExperimentMechanics:
    def test_all_experiments_produce_rows(self, results):
        for experiment_id, result in results.items():
            assert result.rows, f"{experiment_id} produced no rows"
            assert result.experiment_id == experiment_id
            assert result.claim

    def test_row_widths_match_headers(self, results):
        for result in results.values():
            for row in result.rows:
                assert len(row) == len(result.headers)


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="the fixture is a 3.10/3.11 capture: 3.12's compensated float sum() moves the "
    "workloads' centroid `location` attributes in the last digit, hence every PName and "
    "its hash placement, at the parent commit too (the 2-city model_costs.json scenario is unaffected)",
)
def test_model_fed_tables_equal_the_report_captured_before_cost_was_derived():
    """E5-E14 print only model answers and costs: the text must not move."""
    assert capture() == FIXTURE.read_text(encoding="utf-8")


class TestClaimShapes:
    def test_e1_per_set_indexing_is_much_smaller(self, results):
        for row in results["E1"].row_dicts():
            assert row["per_set_index_entries"] < row["per_tuple_index_entries"]
            assert row["entry_ratio"] >= 5.0
        ratios = results["E1"].column("entry_ratio")
        assert ratios == sorted(ratios), "wider windows should increase the ratio"

    def test_e2_filenames_lose_recall_on_unencoded_attributes(self, results):
        result = results["E2"]
        encoded = result.find_row(query="by city (encoded in filename)", scheme="filename")
        unencoded = result.find_row(query="by owner (not encoded)", scheme="filename")
        relationship = result.find_row(query="derived-from relationship", scheme="filename")
        # Encoded attributes work only partially (filename collisions shadow
        # derived products); unencoded attributes and relationships fail outright.
        assert 0.5 < encoded["recall"] <= 1.0
        assert unencoded["recall"] == 0.0
        assert relationship["answerable"] is False
        assert encoded["recall"] > unencoded["recall"]
        for row in result.row_dicts():
            if row["scheme"] == "provenance":
                assert row["recall"] == 1.0 and row["precision"] == 1.0

    def test_e3_labelled_closure_beats_naive_at_depth(self, results):
        rows = results["E3"].row_dicts()
        deepest = max(row["depth"] for row in rows)
        naive = next(r for r in rows if r["depth"] == deepest and r["strategy"] == "naive")
        labelled = next(r for r in rows if r["depth"] == deepest and r["strategy"] == "labelled")
        assert labelled["node_visits"] < naive["node_visits"]

    def test_e3_counts_every_strategy_exactly(self, results):
        """Every strategy's node visits, to the visit: a change to a walk shows here."""
        rows = [
            (row["depth"], row["strategy"], row["queries"], row["node_visits"])
            for row in results["E3"].row_dicts()
        ]
        assert rows == [
            (4, "naive", 8, 30),
            (4, "memoized", 8, 30),
            (4, "labelled", 8, 8),
            (4, "interval", 8, 61),
            (16, "naive", 20, 204),
            (16, "memoized", 20, 204),
            (16, "labelled", 20, 20),
            (16, "interval", 20, 307),
            (64, "naive", 68, 2340),
            (64, "memoized", 68, 2340),
            (64, "labelled", 68, 68),
            (64, "interval", 68, 2731),
        ]

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_e3_runs_each_strategy_over_the_graph_its_store_built(self, strategy):
        """E3 makes its strategies outside any store: each walks the graph the store's ingest built."""
        store = _build_chain_store(depth=4)
        closure = _closure_over(store, strategy)
        assert sorted(closure.graph.node_digests()) == sorted(store.graph.node_digests())
        for digest in store.graph.node_digests():
            assert sorted(closure.graph.parents_of(digest)) == sorted(store.graph.parents_of(digest))
        for pname in store.pnames():
            assert closure.ancestors(pname) == store.closure.ancestors(pname)

    def test_e3_counts_interval_as_the_store_closure_does(self):
        """E3's ``interval`` rows are what a store's own closure counts for the same reads."""
        store = _build_chain_store(depth=16)
        closure = _closure_over(store, "interval")
        for counted in (closure, store.closure):
            counted.reset_counters()
            for pname in store.pnames():
                counted.ancestors(pname)
        assert closure.operations == store.closure.operations

    def test_e4_all_query_suites_answered(self, results):
        rows = results["E4"].row_dicts()
        suites = {row["suite"] for row in rows}
        assert suites == {"versioning", "science", "sensor/EMT"}
        assert all(row["elapsed_ms"] < 1000.0 for row in rows)

    def test_e5_saturation_and_dangling_links(self, results):
        rows = results["E5"].row_dicts()
        latencies = [row["value"] for row in rows if row["measure"] == "publish latency (ms)"]
        assert latencies[-1] > latencies[0], "overload should raise publish latency"
        dangling = [row for row in rows if row["measure"] == "dangling locate answers"]
        assert dangling[0]["value"].startswith("0/")
        assert not dangling[-1]["value"].startswith("0/")

    def test_e6_closure_needs_multiple_rounds_on_databases(self, results):
        rows = results["E6"].row_dicts()
        for model in ("distributed-db", "federated"):
            closure = next(
                r for r in rows if r["model"] == model and r["operation"] == "ancestor closure"
            )
            assert int(closure["closure_rounds"]) >= 2
        central_attr = next(
            r for r in rows if r["model"] == "centralized" and r["operation"] == "attribute query"
        )
        federated_attr = next(
            r for r in rows if r["model"] == "federated" and r["operation"] == "attribute query"
        )
        assert federated_attr["latency_ms"] > central_attr["latency_ms"]

    def test_e7_staleness_grows_with_refresh_interval(self, results):
        rows = results["E7"].row_dicts()
        recalls = [row["recall"] for row in rows]
        assert recalls[0] >= recalls[-1]
        assert recalls[-1] < 1.0
        assert all(row["precision"] <= 1.0 for row in rows)
        assert all(row["closure_supported"] is False for row in rows)

    def test_e8_non_primary_queries_broadcast(self, results):
        rows = results["E8"].row_dicts()
        primary = next(r for r in rows if "primary" in r["query_attribute"] and "non" not in r["query_attribute"])
        others = [r for r in rows if r is not primary]
        assert primary["servers_contacted"] == 1
        assert all(row["servers_contacted"] > 1 for row in others)

    def test_e9_dht_placement_and_scaling(self, results):
        rows = results["E9"].row_dicts()
        dht_distance = next(
            r["value"] for r in rows if r["measure"].startswith("placement") and r["setting"] == "dht"
        )
        locale_distance = next(
            r["value"]
            for r in rows
            if r["measure"].startswith("placement") and r["setting"] == "locale-aware-pass"
        )
        assert dht_distance > 100.0 * (locale_distance + 1.0)
        updaters = [r["value"] for r in rows if r["measure"] == "max supported updaters"]
        assert max(updaters) < 1_000_000, "per-attribute fan-out caps update scaling"

    def test_e10_local_queries_cheapest_on_locale_aware(self, results):
        result = results["E10"]
        locale = result.find_row(model="locale-aware-pass")
        centralized = result.find_row(model="centralized")
        dht = result.find_row(model="dht")
        assert locale["local_query_ms"] < centralized["local_query_ms"]
        assert locale["local_query_ms"] < dht["local_query_ms"]
        assert dht["placement_km"] > 1000.0
        assert locale["placement_km"] < 100.0

    def test_e11_recovery_is_consistent(self, results):
        for row in results["E11"].row_dicts():
            assert row["consistent"] is True
            assert row["recovered"] >= row["acknowledged"]

    def test_e12_no_model_dominates(self, results):
        result = results["E12"]
        rows = {row["model"]: row for row in result.row_dicts()}
        assert set(rows) == {
            "centralized",
            "distributed-db",
            "federated",
            "soft-state",
            "hierarchical",
            "dht",
            "locale-aware-pass",
        }
        # Soft state gives up closure; the DHT pays the largest publish cost and
        # the worst placement; the locale-aware store keeps placement local.
        assert rows["soft-state"]["closure_ms"] == "unsupported"
        publish_costs = {name: row["publish_bytes"] for name, row in rows.items()}
        assert max(publish_costs, key=publish_costs.get) == "dht"
        assert rows["dht"]["placement_km"] > 1000.0
        assert rows["locale-aware-pass"]["placement_km"] < 100.0
        # "No single model dominates": the model with the best query latency
        # does not also have the cheapest publishes.
        best_query = min(rows, key=lambda name: rows[name]["query_ms"])
        best_publish = min(rows, key=lambda name: rows[name]["publish_ms"])
        assert best_query != best_publish

    def test_e13_pass_properties_hold(self, results):
        for row in results["E13"].row_dicts():
            assert row["violations"] == 0

    def test_e14_abstraction_compresses_lineage(self, results):
        rows = results["E14"].row_dicts()
        plain = next(r for r in rows if r["configuration"] == "no abstraction")
        abstracted = next(r for r in rows if "abstracted" in r["configuration"])
        assert plain["compression"] == pytest.approx(1.0)
        assert abstracted["compression"] > 2.0
        assert abstracted["full_lineage"] == plain["full_lineage"]
