"""Tests for the cost-based planner, executor accounting and explains."""

from __future__ import annotations

import pytest

from repro.api.client import LocalClient
from repro.api.dsl import Q
from repro.core.attributes import GeoPoint, Timestamp
from repro.core.pass_store import PassStore
from repro.core.provenance import Annotation, PName, ProvenanceRecord
from repro.core.query import (
    And,
    AttributeEquals,
    AttributeExists,
    AttributeIn,
    AttributeRange,
    DerivedFrom,
    IsRaw,
    NearLocation,
    Not,
    Or,
    Query,
    TimeWindowOverlaps,
)
from repro.core.tupleset import TupleSet
from repro.query import FullScanPath, QueryPlanner


def _populated_store(count: int = 200) -> PassStore:
    """Records over several cities with tiled windows and spread locations."""
    store = PassStore()
    for index in range(count):
        record = ProvenanceRecord(
            {
                "domain": "traffic",
                "city": f"city-{index % 10}",
                "sequence": index,
                "window_start": Timestamp(60.0 * index),
                "window_end": Timestamp(60.0 * index + 59.0),
                "location": GeoPoint(30.0 + (index % 40) * 0.5, (index % 60) * 0.5),
            }
        )
        store.ingest(TupleSet([], record))
    return store


@pytest.fixture
def store() -> PassStore:
    return _populated_store()


class TestPathSelection:
    def test_equality_uses_index(self, store):
        explain = store.explain(AttributeEquals("city", "city-3"))
        assert explain.path_kind == "attr-eq"
        assert explain.used_index

    def test_range_uses_index(self, store):
        explain = store.explain(AttributeRange("sequence", low=10, high=30))
        assert explain.path_kind == "attr-range"
        assert explain.actual_rows == 21

    def test_in_uses_multi_probe(self, store):
        explain = store.explain(AttributeIn("city", ("city-1", "city-2")))
        assert explain.path_kind == "attr-in"
        assert explain.actual_rows == 40

    def test_time_window_uses_temporal_index(self, store):
        explain = store.explain(TimeWindowOverlaps(Timestamp(600.0), Timestamp(900.0)))
        assert explain.path_kind == "temporal-overlap"
        assert explain.rows_scanned < 200

    def test_near_location_uses_spatial_index(self, store):
        explain = store.explain(NearLocation("location", GeoPoint(35.0, 10.0), 80.0))
        assert explain.path_kind == "spatial-radius"
        assert explain.rows_scanned < 200

    def test_near_on_unindexed_attribute_scans(self, store):
        explain = store.explain(NearLocation("not-location", GeoPoint(35.0, 10.0), 80.0))
        assert explain.path_kind == "full-scan"

    def test_negative_radius_matches_nothing_without_raising(self, store):
        # Pre-planner behavior: a degenerate radius scanned and found
        # nothing; the planner must not turn it into an index error.
        pairs, explain = store.query_explain(NearLocation("location", GeoPoint(35.0, 10.0), -5.0))
        assert pairs == []
        assert explain.path_kind == "full-scan"

    def test_exists_on_rare_attribute(self, store):
        rare = ProvenanceRecord({"domain": "traffic", "rare_flag": True})
        store.ingest(TupleSet([], rare))
        explain = store.explain(AttributeExists("rare_flag"))
        assert explain.path_kind == "attr-exists"
        assert explain.actual_rows == 1
        assert explain.rows_scanned == 1

    def test_unsargable_predicate_scans(self, store):
        explain = store.explain(IsRaw(True))
        assert explain.path_kind == "full-scan"
        assert not explain.used_index
        assert explain.rows_scanned == 200

    def test_conjunction_intersects_selective_probes(self, store):
        predicate = And(
            (AttributeEquals("city", "city-3"), AttributeRange("sequence", low=0, high=40))
        )
        explain = store.explain(predicate)
        assert explain.path_kind == "index-intersection"
        # Candidates fetched are the intersection, not either probe alone.
        assert explain.rows_scanned <= 20

    def test_conjunction_with_unsargable_part_still_probes(self, store):
        predicate = And((AttributeEquals("city", "city-3"), IsRaw(True)))
        explain = store.explain(predicate)
        assert explain.used_index
        assert explain.rows_scanned == 20

    def test_sargable_disjunction_unions(self, store):
        predicate = Or(
            (AttributeEquals("city", "city-1"), AttributeEquals("city", "city-2"))
        )
        explain = store.explain(predicate)
        assert explain.path_kind == "index-union"
        assert explain.actual_rows == 40

    def test_disjunction_with_unsargable_branch_scans(self, store):
        predicate = Or((AttributeEquals("city", "city-1"), IsRaw(True)))
        explain = store.explain(predicate)
        assert explain.path_kind == "full-scan"

    def test_lineage_conjunct_rides_the_index(self, store):
        parent = ProvenanceRecord({"domain": "traffic", "stage": "raw-x"})
        child = ProvenanceRecord(
            {"domain": "traffic", "stage": "derived-x", "city": "city-3"},
            ancestors=(parent.pname(),),
        )
        store.ingest(TupleSet([], parent))
        store.ingest(TupleSet([], child))
        predicate = And(
            (AttributeEquals("city", "city-3"), DerivedFrom(parent.pname()))
        )
        pairs, explain = store.query_explain(predicate)
        assert pairs == [child.pname().digest]
        assert explain.used_index

    def test_a_lineage_answer_wraps_each_name_once(self, store, monkeypatch):
        """The probe keeps the closure's digests; the fetch names them by the
        graph's PNames, each made once for the graph's life (wrapping in the
        closure and again for the fetch cost 3 us a query)."""
        root = ProvenanceRecord({"domain": "traffic", "stage": "raw-y"})
        derived = [
            ProvenanceRecord({"domain": "traffic", "stage": "derived-y", "step": step}, ancestors=(root.pname(),))
            for step in range(6)
        ]
        store.ingest_many([TupleSet([], record) for record in (root, *derived)])
        store.descendant_digests(root.pname())  # labels built before counting
        made = []
        validate = PName.__post_init__
        monkeypatch.setattr(PName, "__post_init__", lambda self: made.append(self.digest) or validate(self))
        digests, explain = store.query_explain(DerivedFrom(root.pname()))
        assert explain.path_kind == "lineage-descendants"
        assert sorted(made) == digests == sorted(record.pname().digest for record in derived)
        # Asked again -- or through the Set[PName] answer -- nothing is made.
        assert store.query_explain(DerivedFrom(root.pname()))[0] == digests
        assert store.descendants(root.pname()) == {record.pname() for record in derived}
        assert len(made) == len(derived)

    def test_unselective_equality_answers_from_the_index(self, store):
        # Every record is domain=traffic.  The probe is exact, so its bucket
        # *is* the answer: no record is read, where a scan reads them all.
        before = store.backend.stats.gets
        explain = store.explain(AttributeEquals("domain", "traffic"))
        assert explain.path_kind == "attr-eq"
        assert explain.rows_scanned == explain.actual_rows == 200
        assert store.backend.stats.gets == before

    def test_unselective_inexact_probe_still_falls_back_to_scan(self, store):
        # An ``annotation:`` bucket only yields candidates, each to be
        # fetched and re-tested: touching everything, it loses to a scan.
        for pname in store.pnames():
            store.annotate(pname, Annotation("reviewed", True))
        explain = store.explain(AttributeEquals("annotation:reviewed", True))
        assert explain.path_kind == "full-scan"
        assert explain.actual_rows == 200

    def test_restricted_index_is_not_consulted(self):
        store = PassStore(indexed_attributes=["domain"])
        for index in range(10):
            store.ingest(
                TupleSet([], ProvenanceRecord({"domain": f"d{index}", "city": "london"}))
            )
        explain = store.explain(AttributeEquals("city", "london"))
        assert explain.path_kind == "full-scan"
        explain = store.explain(AttributeEquals("domain", "d3"))
        assert explain.path_kind == "attr-eq"


class TestParityOnOptions:
    def test_order_by_and_limit_match_scan(self, store):
        query = Query(
            predicate=AttributeRange("sequence", low=20, high=80),
            order_by="sequence",
            limit=5,
        )
        planned, explain = store.query_explain(query)
        scanned, _ = store.query_explain(query, force_full_scan=True)
        assert planned == scanned
        assert explain.used_index

    def test_exclude_removed_matches_scan(self, store):
        victim = store.query(AttributeEquals("city", "city-5"))[0]
        store.remove_data(victim)
        query = Query(predicate=AttributeEquals("city", "city-5"), include_removed=False)
        planned, _ = store.query_explain(query)
        scanned, _ = store.query_explain(query, force_full_scan=True)
        assert set(planned) == set(scanned)
        assert victim.digest not in planned


class TestPlansFromConstants:
    """No plan outlives the query it was made for."""

    def test_same_shape_plans_the_same_path_for_each_window(self, store):
        first = store.explain(TimeWindowOverlaps(Timestamp(0.0), Timestamp(300.0)))
        later = store.explain(TimeWindowOverlaps(Timestamp(3000.0), Timestamp(3300.0)))
        assert first.shape == later.shape
        assert first.path_kind == later.path_kind == "temporal-overlap"
        assert first.actual_rows == later.actual_rows == 6

    def test_different_shapes_choose_their_own_paths(self, store):
        assert store.explain(AttributeEquals("city", "city-1")).path_kind == "attr-eq"
        other = store.explain(AttributeRange("sequence", low=1, high=2))
        assert other.path_kind == "attr-range"
        assert other.actual_rows == 2

    def test_a_later_window_answers_its_own_constants(self, store):
        store.explain(TimeWindowOverlaps(Timestamp(0.0), Timestamp(59.0)))
        later = TimeWindowOverlaps(Timestamp(6000.0), Timestamp(6059.0))
        pairs, explain = store.query_explain(later)
        assert explain.path_kind == "temporal-overlap"
        scanned, _ = store.query_explain(later, force_full_scan=True)
        assert set(pairs) == set(scanned)
        assert len(pairs) == 1  # the [6000, 6059] tile

    def test_a_later_intersection_answers_its_own_constants(self, store):
        store.explain(
            And((AttributeEquals("city", "city-3"), AttributeRange("sequence", low=0, high=40)))
        )
        later = And(
            (AttributeEquals("city", "city-7"), AttributeRange("sequence", low=100, high=140))
        )
        pairs, explain = store.query_explain(later)
        assert explain.path_kind == "index-intersection"
        scanned, _ = store.query_explain(later, force_full_scan=True)
        assert set(pairs) == set(scanned)
        assert len(pairs) == 4

    def test_growth_is_priced_by_the_next_plan(self, store):
        predicate = AttributeEquals("city", "city-1")
        assert store.explain(predicate).estimated_rows == 20
        for index in range(1000, 2200):
            store.ingest(TupleSet([], ProvenanceRecord({"city": "city-1", "sequence": index})))
        grown = store.explain(predicate)
        assert grown.estimated_rows == grown.actual_rows == 1220


class TestAccounting:
    def test_index_probe_counted_once(self, store):
        before = store.stats.index_hits
        store.query(AttributeEquals("city", "city-3"))
        assert store.stats.index_hits == before + 1

    def test_discarded_probes_never_charged(self, store):
        before = store.stats.index_hits
        # Two sargable conjuncts, but only the chosen path's probes run.
        store.query(
            And((AttributeEquals("city", "city-3"), AttributeEquals("domain", "traffic")))
        )
        assert store.stats.index_hits == before + 1

    def test_short_circuited_intersection_charges_executed_probes_only(self, store):
        # city='nowhere' is empty, so the intersection stops after its
        # first (cheapest) probe; the skipped probe must not be charged.
        before = store.stats.index_hits
        pairs, explain = store.query_explain(
            And(
                (AttributeEquals("city", "nowhere"), AttributeRange("sequence", low=0, high=90))
            )
        )
        assert pairs == []
        assert explain.path_kind == "index-intersection"
        assert store.stats.index_hits == before + 1

    def test_records_scanned_counts_candidates(self, store):
        before = store.stats.records_scanned
        explain = store.explain(AttributeEquals("city", "city-3"))
        # explain() executes one query.
        assert store.stats.records_scanned == before + explain.rows_scanned

    def test_full_scan_counter(self, store):
        before = store.stats.full_scans
        store.query(IsRaw(True))
        assert store.stats.full_scans == before + 1

    def test_query_records_fetches_each_record_once(self, store):
        before = store.backend.stats.gets
        pairs = store.query_records(AttributeEquals("city", "city-4"))
        assert len(pairs) == 20
        # One backend read per candidate, none per returned result.
        assert store.backend.stats.gets - before == 20


class TestExplainSurface:
    def test_estimates_and_actuals_reported(self, store):
        explain = store.explain(AttributeEquals("city", "city-3"))
        assert explain.estimated_rows == 20
        assert explain.actual_rows == 20
        assert explain.shape is not None
        assert "city" in explain.path

    def test_format_mentions_path_and_counts(self, store):
        text = store.explain(TimeWindowOverlaps(Timestamp(0.0), Timestamp(300.0))).format()
        assert "temporal-overlap" in text
        assert "estimated rows" in text
        assert "result cache: miss" in text

    def test_facade_explain(self, store):
        client = LocalClient(store, owns_store=False)
        explain = client.explain(Q.attr("city") == "city-3")
        assert explain.used_index
        assert explain.site == store.site

    def test_facade_query_reports_rows_scanned(self, store):
        client = LocalClient(store, owns_store=False)
        result = client.query(Q.attr("city") == "city-3")
        assert result.cost.rows_scanned == 20

    def test_facade_stats_expose_planner(self, store):
        client = LocalClient(store, owns_store=False)
        client.query(Q.between(0.0, 300.0))
        stats = client.stats()
        assert "planner" in stats
        assert stats["planner"]["statistics"]["record_count"] == len(store)
        assert stats["store"]["full_scans"] >= 0


class TestStatistics:
    def test_counters_read_off_the_indexes(self, store):
        snapshot = store.planner_statistics()
        assert snapshot["record_count"] == 200
        assert snapshot["windowed_records"] == 200
        assert snapshot["located_records"] == 200
        assert snapshot["distinct_counts"]["city"] == 10
        span = snapshot["time_span"]
        assert span == (0.0, 60.0 * 199 + 59.0)

    def test_sqlite_bulk_fetch_on_index_path(self, tmp_path):
        from repro.storage.factory import make_backend

        store = PassStore(backend=make_backend("sqlite", path=str(tmp_path / "bulk.db")))
        for index in range(40):
            store.ingest(
                TupleSet(
                    [],
                    ProvenanceRecord(
                        {"domain": "traffic", "city": f"c{index % 4}", "sequence": index}
                    ),
                )
            )
        pairs, explain = store.query_explain(AttributeEquals("city", "c1"))
        assert explain.used_index
        assert len(pairs) == 10
        scanned, _ = store.query_explain(
            AttributeEquals("city", "c1"), force_full_scan=True
        )
        assert set(pairs) == set(scanned)
        store.backend.close()

    def test_rebuild_restores_statistics(self, tmp_path):
        from repro.storage.factory import make_backend

        path = str(tmp_path / "pass.db")
        store = PassStore(backend=make_backend("sqlite", path=path))
        for index in range(25):
            store.ingest(
                TupleSet([], ProvenanceRecord({"domain": "traffic", "sequence": index}))
            )
        store.backend.close()

        reopened = PassStore(backend=make_backend("sqlite", path=path))
        assert reopened.record_count == 25
        explain = reopened.explain(AttributeEquals("sequence", 7))
        assert explain.path_kind == "attr-eq"
        assert explain.actual_rows == 1
        reopened.backend.close()


class TestPlannerIsolation:
    def test_force_full_scan_plan(self, store):
        planner = QueryPlanner(store)
        plan = planner.plan(Query(predicate=AttributeEquals("city", "city-1")), True)
        assert isinstance(plan.path, FullScanPath)

    def test_not_pushed_inward_still_correct(self, store):
        predicate = Not(
            Or((AttributeEquals("city", "city-1"), AttributeEquals("city", "city-2")))
        )
        planned, _ = store.query_explain(predicate)
        scanned, _ = store.query_explain(predicate, force_full_scan=True)
        assert set(planned) == set(scanned)
        assert len(planned) == 160
