"""Tests for the adaptive feedback loop and the plan-cache edge cases.

Covers the four feedback mechanisms (drift-based plan invalidation,
statistics refresh scheduling, closure strategy switching, hot-key
result caching) plus the plan-cache edges the planner suite left
uncovered: LRU eviction at the shape cap, staleness in both growth
directions, and rebind soundness after a drift invalidation.
"""

from __future__ import annotations

import pytest

from repro.api.dsl import Q
from repro.core.pass_store import PassStore
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import AttributeEquals, Query
from repro.core.tupleset import TupleSet
from repro.query import planner as planner_mod
from repro.query.feedback import (
    _DRIFT_COOLDOWN,
    _DRIFT_MIN_SAMPLES,
    _HOT_KEY_MIN_HITS,
    _REFRESH_DRIFT_EVENTS,
    _RESULT_CACHE_MIN_SCANNED,
)
from repro.query.planner import _CACHE_STALENESS_FACTOR, _ShapeAnalysis

HOT = "city-007"


def _record(city: str, sequence: int, ancestors=()) -> ProvenanceRecord:
    return ProvenanceRecord(
        {"domain": "traffic", "city": city, "sequence": sequence}, ancestors=ancestors
    )


def _populate(store: PassStore, count: int, cities: int = 10) -> None:
    store.ingest_many(
        [TupleSet([], _record(f"city-{i % cities:03d}", i)) for i in range(count)]
    )


def _flood(store: PassStore, start: int, count: int) -> None:
    store.ingest_many(
        [TupleSet([], _record(HOT, start + i)) for i in range(count)]
    )


def _shifted_store() -> PassStore:
    """1000 uniform records, then 800 more all in HOT -- the same
    mid-run selectivity shift the adaptive benchmark runs, sized down."""
    store = PassStore()
    _populate(store, 1000)
    return store


def _narrow(probe: int):
    low = 100 + probe * 10
    return (Q.attr("city") == HOT) & Q.attr("sequence").between(low, low + 10)


class TestDriftInvalidation:
    def _drive_to_drift(self, store: PassStore):
        """Warm a single-probe plan, flood, then probe until it adapts."""
        wide = (Q.attr("city") == HOT) & Q.attr("sequence").between(0, 100_000)
        for _ in range(3):
            store.query_explain(wide)
        _flood(store, 1000, 800)
        for probe in range(12):
            pairs, explain = store.query_explain(_narrow(probe))
            if explain.adapted:
                return probe, pairs, explain
        pytest.fail("drift never re-ranked the shape")

    def test_drift_rerank_fires_and_reports_reason(self):
        store = _shifted_store()
        _, _, explain = self._drive_to_drift(store)
        assert "drift" in explain.adapted
        assert not explain.cache_hit  # the re-ranked plan is a fresh analysis
        assert store.planner.cache_snapshot()["drift_invalidations"] == 1
        assert store.feedback.snapshot()["plans_invalidated"] == 1
        assert store.feedback.snapshot()["drift_events"] >= 1

    def test_rerank_recovers_scan_volume(self):
        """After the re-rank the plan stops scanning the flooded bucket."""
        store = _shifted_store()
        probe, _, explain = self._drive_to_drift(store)
        # The stale equality probe scanned the whole ~880-row bucket;
        # the re-ranked plan intersects with the narrow range.
        assert explain.rows_scanned < 100
        _, after = store.query_explain(_narrow(probe + 1))
        assert after.cache_hit and after.rows_scanned < 100

    def test_rebind_stays_sound_after_drift_invalidation(self):
        """Fresh constants through the re-ranked selection must answer
        exactly like a forced full scan."""
        store = _shifted_store()
        probe, _, _ = self._drive_to_drift(store)
        for next_probe in range(probe + 1, probe + 4):
            predicate = _narrow(next_probe)
            planned, _ = store.query_explain(predicate)
            scanned, _ = store.query_explain(predicate, force_full_scan=True)
            assert set(planned) == set(scanned)

    def test_answers_match_the_static_engine_on_every_probe_through_the_shift(self):
        """Feedback changes how candidates are generated, never the answer:
        through the stale plan, the probe that re-ranks and the new plan."""
        adaptive, static = _shifted_store(), _shifted_store()
        static.feedback.enabled = False
        wide = (Q.attr("city") == HOT) & Q.attr("sequence").between(0, 100_000)
        for store in (adaptive, static):
            for _ in range(3):
                store.query_explain(wide)
            _flood(store, 1000, 800)
        adapted_at = None
        for probe in range(12):
            adaptive_pairs, explain = adaptive.query_explain(_narrow(probe))
            static_pairs, _ = static.query_explain(_narrow(probe))
            assert set(adaptive_pairs) == set(static_pairs)
            assert adaptive_pairs
            if explain.adapted and adapted_at is None:
                adapted_at = probe
        assert adapted_at is not None and 0 < adapted_at < 11

    def test_cooldown_bounds_replan_churn(self):
        """Consuming a drift mark starts a cooldown: the same shape is
        not re-marked while it elapses, even if misestimates continue."""
        store = PassStore()
        feedback = store.feedback
        shape = "eq[city]"
        for _ in range(_DRIFT_MIN_SAMPLES):
            feedback.observe_execution(shape, 1000, 1, cache_hit=True)
        assert feedback.should_replan(shape) is not None
        for _ in range(_DRIFT_COOLDOWN // 2):
            feedback.observe_execution(shape, 1000, 1, cache_hit=True)
        assert feedback.should_replan(shape) is None

    def test_fresh_plan_clears_window_and_marks(self):
        store = PassStore()
        feedback = store.feedback
        shape = "eq[city]"
        for _ in range(_DRIFT_MIN_SAMPLES):
            feedback.observe_execution(shape, 1000, 1, cache_hit=True)
        # A fresh (non-cache-hit) execution wipes the pending mark: the
        # new selection is judged on its own record.
        feedback.observe_execution(shape, 10, 8, cache_hit=False)
        assert feedback.should_replan(shape) is None

    def test_misestimate_counts_both_directions(self):
        store = PassStore()
        feedback = store.feedback
        feedback.observe_execution("a", 1000, 10, cache_hit=True)  # over
        feedback.observe_execution("b", 10, 1000, cache_hit=True)  # under
        feedback.observe_execution("c", 100, 90, cache_hit=True)  # fine
        assert feedback.snapshot()["misestimates"] == 2

    def test_disabled_feedback_never_replans(self):
        store = _shifted_store()
        store.feedback.enabled = False
        wide = (Q.attr("city") == HOT) & Q.attr("sequence").between(0, 100_000)
        for _ in range(3):
            store.query_explain(wide)
        _flood(store, 1000, 800)
        for probe in range(12):
            _, explain = store.query_explain(_narrow(probe))
            assert explain.adapted is None
        assert store.planner.cache_snapshot()["drift_invalidations"] == 0


class TestPlanCacheEdges:
    def test_lru_eviction_at_shape_cap_keeps_cumulative_counters(self, monkeypatch):
        monkeypatch.setattr(planner_mod, "_CACHE_MAX_SHAPES", 4)
        store = PassStore()
        _populate(store, 100)
        for attr in ("city", "sequence", "domain"):
            store.query_explain(Q.attr(attr) == "x")
            store.query_explain(Q.attr(attr) == "x")  # a hit per shape
        for index in range(6):  # distinct shapes overflow the cap
            store.query_explain(Q.attr(f"extra-{index}").exists())
        snapshot = store.planner.cache_snapshot()
        assert snapshot["entries"] <= 4
        assert snapshot["evictions"] >= 5
        # Hits survive the evictions: the counter is cumulative, not a
        # sum over live entries.
        assert snapshot["hits"] >= 3

    def test_staleness_on_growth_forces_reanalysis(self):
        store = PassStore()
        _populate(store, 100)
        predicate = Q.attr("city") == "city-001"
        assert store.explain(predicate).cache_hit is False
        assert store.explain(predicate).cache_hit is True
        _populate(store, int(100 * _CACHE_STALENESS_FACTOR) + 100)
        assert store.explain(predicate).cache_hit is False

    def test_staleness_guard_watches_both_directions(self):
        """record_count can only shrink via rebuilds, so the shrink
        direction is asserted on _stale directly."""
        store = PassStore()
        _populate(store, 100)
        grown = _ShapeAnalysis(record_count=10, selection=("full",))
        shrunk = _ShapeAnalysis(record_count=100 * 10, selection=("full",))
        fresh = _ShapeAnalysis(record_count=100, selection=("full",))
        assert store.planner._stale(grown) is True
        assert store.planner._stale(shrunk) is True
        assert store.planner._stale(fresh) is False


class TestResultCache:
    def _hot_query(self):
        return Query(AttributeEquals("city", HOT))

    def _cache_store(self) -> PassStore:
        """All hot-city rows, enough that the probe clears the
        worth-caching scan floor."""
        store = PassStore()
        store.ingest_many(
            [
                TupleSet([], _record(HOT, i))
                for i in range(_RESULT_CACHE_MIN_SCANNED + 10)
            ]
        )
        _populate(store, 50)
        return store

    def test_admission_needs_hot_key_sightings(self):
        store = self._cache_store()
        for _ in range(_HOT_KEY_MIN_HITS):
            _, explain = store.query_explain(self._hot_query())
            assert explain.path_kind != "result-cache"
        _, explain = store.query_explain(self._hot_query())
        assert explain.path_kind == "result-cache"
        assert explain.rows_scanned == 0
        assert "hot-key" in explain.adapted
        assert store.feedback.snapshot()["result_cache"]["hits"] == 1

    def test_cached_answers_match_execution(self):
        store = self._cache_store()
        baseline = None
        for _ in range(_HOT_KEY_MIN_HITS + 1):
            pairs, _ = store.query_explain(self._hot_query())
            if baseline is None:
                baseline = set(pairs)
        assert set(pairs) == baseline

    def test_nonmatching_ingest_keeps_entry(self):
        store = self._cache_store()
        for _ in range(_HOT_KEY_MIN_HITS + 1):
            store.query_explain(self._hot_query())
        store.ingest(TupleSet([], _record("city-other", 9999)))
        _, explain = store.query_explain(self._hot_query())
        assert explain.path_kind == "result-cache"

    def test_matching_ingest_invalidates_precisely(self):
        store = self._cache_store()
        for _ in range(_HOT_KEY_MIN_HITS + 1):
            pairs, _ = store.query_explain(self._hot_query())
        before = len(pairs)
        store.ingest(TupleSet([], _record(HOT, 9999)))
        pairs, explain = store.query_explain(self._hot_query())
        assert explain.path_kind != "result-cache"
        assert len(pairs) == before + 1
        assert store.feedback.snapshot()["result_cache"]["invalidations"] >= 1

    def test_remove_data_drops_every_entry(self):
        store = self._cache_store()
        for _ in range(_HOT_KEY_MIN_HITS + 1):
            pairs, _ = store.query_explain(self._hot_query())
        store.remove_data(PName(pairs[0]))
        _, explain = store.query_explain(self._hot_query())
        assert explain.path_kind != "result-cache"

    def test_small_scans_are_never_cached(self):
        """A probe under the scan floor re-runs faster than the cache
        bookkeeping it would displace."""
        store = PassStore()
        _populate(store, 50)  # every bucket is tiny
        predicate = Q.attr("city") == "city-001"
        for _ in range(_HOT_KEY_MIN_HITS + 3):
            _, explain = store.query_explain(predicate)
            assert explain.path_kind != "result-cache"

    def test_lineage_queries_are_never_cached(self):
        store = PassStore()
        parent = TupleSet([], _record(HOT, 0))
        store.ingest(parent)
        store.ingest_many(
            [
                TupleSet([], _record(HOT, i + 1, ancestors=(parent.pname,)))
                for i in range(_RESULT_CACHE_MIN_SCANNED + 10)
            ]
        )
        predicate = Q.derived_from(parent.pname)
        for _ in range(_HOT_KEY_MIN_HITS + 3):
            _, explain = store.query_explain(predicate)
            assert explain.path_kind != "result-cache"


class TestRefreshScheduling:
    def test_ingest_volume_schedules_refresh(self):
        store = PassStore()
        _populate(store, 600)  # > 2 x the 256-record base
        assert store.feedback.refresh_due() is True
        store.query_explain(Q.attr("city") == "city-001")
        snapshot = store.feedback.snapshot()
        assert snapshot["stats_refreshes"] == 1
        assert store.feedback.refresh_due() is False

    def test_drift_on_an_unchanged_store_rebuilds_nothing_until_a_publish(self):
        """A conjunction whose min-of-inputs estimate is intrinsically >= 4x
        off drifts forever; rebuilding statistics nothing was written to
        reproduces them (at 30+ ms a time on a few thousand records)."""
        store = _shifted_store()
        store.query_explain(_narrow(0))  # the preload's ingest-volume rebuild
        assert store.feedback.snapshot()["stats_refreshes"] == 1
        before = store.statistics.snapshot()
        for probe in range(400):
            _, explain = store.query_explain(_narrow(probe % 80))
            assert explain.estimated_rows >= 4 * max(1, explain.actual_rows)
        snapshot = store.feedback.snapshot()
        assert snapshot["drift_events"] >= _REFRESH_DRIFT_EVENTS
        assert snapshot["stats_refreshes"] == 1
        assert store.statistics.snapshot() == before
        store.ingest(TupleSet([], _record("city-000", 5000)))
        store.query_explain(_narrow(0))
        assert store.feedback.snapshot()["stats_refreshes"] == 2
        assert store.feedback.refresh_due() is False

    def test_refresh_recomputes_out_of_order_depths(self):
        """Incremental depth tracking understates lineage that arrives
        child-first; the scheduled rebuild corrects it."""
        store = PassStore()
        grand = TupleSet([], _record("city-001", 0))
        parent = TupleSet([], _record("city-002", 1, ancestors=(grand.pname,)))
        child = TupleSet([], _record("city-003", 2, ancestors=(parent.pname,)))
        # Child first: its depth is fixed at 1 before the parent's own
        # depth (1, via the grandparent) is known -- true depth is 2.
        store.ingest(child)
        store.ingest(parent)
        store.ingest(grand)
        assert store.graph_stats.max_depth == 1
        store.refresh_statistics()
        assert store.graph_stats.max_depth == 2

    def test_refresh_rebuilds_attribute_statistics(self):
        store = PassStore()
        _populate(store, 100)
        store.statistics.attribute_counts.clear()  # simulate skew
        store.refresh_statistics()
        assert store.statistics.attribute_counts["city"] == 100
        assert store.statistics.record_count == 100


class TestClosureSwitching:
    def _force_check(self, store: PassStore, nodes: int, depth: int) -> None:
        """Make the next single ingest run the amortized shape check
        against a synthetic DAG summary."""
        store.feedback._ingests_since_closure_check = 10_000
        store.graph_stats.nodes = nodes
        store.graph_stats.max_depth = depth

    @staticmethod
    def _switches_logged(caplog) -> list:
        return [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.core" and record.getMessage().startswith("closure strategy switched")
        ]

    def test_switches_labelled_to_interval_on_big_graphs(self, caplog):
        store = PassStore()
        _populate(store, 10)
        assert store.closure.name == "labelled"
        self._force_check(store, nodes=9000, depth=10)
        with caplog.at_level("INFO", logger="repro.core"):
            store.ingest(TupleSet([], _record(HOT, 9000)))
            store.ingest(TupleSet([], _record(HOT, 9001)))
        assert store.closure.name == "interval"
        assert store.feedback.snapshot()["closure_switches"] == 1
        # the publish that paid for the rebuild says so, once
        (message,) = self._switches_logged(caplog)
        assert message.startswith(f"closure strategy switched: from=labelled to=interval nodes={len(store.graph) - 1} duration_ms=")

    def test_an_automatic_switch_rebuilds_now_and_checkpoints_at_close(self, tmp_path, caplog):
        """The publish that trips the switch builds the index; ``close()`` writes its blob."""
        import repro

        url = f"sqlite:///{tmp_path}/pass.db"
        client = repro.connect(url)
        store = client.store
        _populate(store, 10)
        before = store.backend.stats.puts
        store.ingest(TupleSet([], _record(HOT, 8999)))
        puts_of_a_publish = store.backend.stats.puts - before
        self._force_check(store, nodes=9000, depth=10)
        before = store.backend.stats.puts
        with caplog.at_level("INFO", logger="repro.core"):
            store.ingest(TupleSet([], _record(HOT, 9000)))
        assert store.closure.name == "interval"
        assert store.closure.index_stats()["rebuilds"] == 1  # built inside that publish
        assert store.backend.stats.puts - before == puts_of_a_publish  # and nothing written for it
        assert store.backend.get_index_blob("closure:interval") is None
        (message,) = self._switches_logged(caplog)
        assert message.startswith("closure strategy switched: from=labelled to=interval nodes=12 duration_ms=")
        assert float(message.rsplit("duration_ms=", 1)[1]) >= 0.0
        client.close()
        with repro.connect(url + "?closure=interval") as reopened:
            assert reopened.store.backend.get_index_blob("closure:interval") is not None
            assert reopened.stats()["storage"]["closure_restore"]["mode"] == "full"
            assert reopened.store.closure.index_stats()["rebuilds"] == 0

    def test_hysteresis_keeps_middling_graphs_put(self, caplog):
        store = PassStore()
        _populate(store, 10)
        self._force_check(store, nodes=5000, depth=50)
        with caplog.at_level("INFO", logger="repro.core"):
            store.ingest(TupleSet([], _record(HOT, 9000)))
        assert self._switches_logged(caplog) == []
        assert store.closure.name == "labelled"
        assert store.feedback.advise_closure("interval") is None
        assert store.feedback.advise_closure("labelled") is None

    def test_switches_back_with_hysteresis(self):
        store = PassStore()
        store.rebuild_closure_index(strategy="interval")
        _populate(store, 10)
        self._force_check(store, nodes=100, depth=2)
        store.ingest(TupleSet([], _record(HOT, 9000)))
        assert store.closure.name == "labelled"

    def test_never_advises_away_from_experimental_strategies(self):
        store = PassStore()
        assert store.feedback.advise_closure("naive") is None
        assert store.feedback.advise_closure("memoized") is None

    def test_sharded_stores_never_switch(self):
        from repro.storage.sharded import ShardedBackend

        store = PassStore(backend=ShardedBackend(shards=2, kind="memory"))
        _populate(store, 10)
        before = store.closure.name
        self._force_check(store, nodes=9000, depth=10)
        store.ingest(TupleSet([], _record(HOT, 9000)))
        assert store.closure.name == before
        assert store.feedback.snapshot()["closure_switches"] == 0

    def test_rebuild_reports_the_switch(self):
        store = PassStore()
        _populate(store, 20)
        stats = store.rebuild_closure_index(strategy="interval")
        assert stats["switched_from"] == "labelled"
        assert store.closure.name == "interval"
        # Lineage still answers correctly through the new strategy.
        parent = TupleSet([], _record(HOT, 100))
        child = TupleSet([], _record(HOT, 101, ancestors=(parent.pname,)))
        store.ingest(parent)
        store.ingest(child)
        assert parent.pname in store.closure.ancestors(child.pname)
