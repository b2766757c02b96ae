"""Tests for what the store learns from its traffic.

Covers fresh per-query planning (no plan outlives its query's
constants), the one feedback mechanism -- hot-key result caching -- and
the result cache's key: two different questions must never share one.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from test_planner_parity import _resolve, predicates

from repro.api.dsl import Q
from repro.core.pass_store import PassStore
from repro.core.provenance import PName, ProvenanceRecord
from repro.core.query import And, AttributeEquals, AttributeIn, Or, Query
from repro.core.tupleset import TupleSet
from repro.query import feedback as feedback_mod
from repro.query.feedback import _HOT_KEY_MIN_HITS, _RESULT_CACHE_MIN_SCANNED
from repro.query.normalize import normalize
from repro.query.paths import EqualityProbe, IndexIntersection, RangeProbe

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


class TestFreshPlans:
    """Every query is planned from its own constants."""

    def test_the_first_narrow_probe_after_a_flood_already_intersects(self):
        """A wide plan warmed before the flood must not decide how the
        narrow probes after it run: the very first one intersects and
        stops scanning the flooded bucket."""
        store = _shifted_store()
        wide = (Q.attr("city") == HOT) & Q.attr("sequence").between(0, 100_000)
        for _ in range(3):
            store.query_explain(wide)
        _flood(store, 1000, 800)
        planned, explain = store.query_explain(_narrow(0))
        assert explain.path_kind == "index-intersection"
        assert explain.rows_scanned < 100  # the flooded bucket alone holds ~900
        scanned, _ = store.query_explain(_narrow(0), force_full_scan=True)
        assert planned and set(planned) == set(scanned)

    def test_plan_estimates_each_sargable_conjunct_once(self, monkeypatch):
        """Ranking, the scan fallback, the intersection test and the
        plan's estimate share one number per option, and running the
        intersection prices nothing."""
        store = _shifted_store()
        calls = []
        for probe in (EqualityProbe, RangeProbe):
            priced = probe.estimate

            def counted(path, store, priced=priced):
                calls.append(path.kind)
                return priced(path, store)

            monkeypatch.setattr(probe, "estimate", counted)
        predicate = (
            (Q.attr("city") == HOT)
            & Q.attr("sequence").between(100, 110)
            & Q.attr("city").contains("007")  # not sargable: never priced
        )
        plan = store.planner.plan(Q.find(predicate).build())
        assert sorted(calls) == ["attr-eq", "attr-range"]
        assert isinstance(plan.path, IndexIntersection)
        assert [path.kind for path in plan.path.paths] == ["attr-range", "attr-eq"]
        assert plan.estimated_rows == store.attribute_index.estimate_range("sequence", 100, 110, True, True)
        calls.clear()
        plan.path.probe(store)
        assert calls == []

    def _warm_then_flood(self, store: PassStore) -> None:
        wide = (Q.attr("city") == HOT) & Q.attr("sequence").between(0, 100_000)
        for _ in range(3):
            store.query_explain(wide)
        _flood(store, 1000, 800)

    def test_answers_match_a_forced_scan_on_every_probe_through_the_shift(self):
        """Planning changes how candidates are generated, never the answer."""
        store = _shifted_store()
        self._warm_then_flood(store)
        for probe in range(12):
            planned, _ = store.query_explain(_narrow(probe))
            scanned, _ = store.query_explain(_narrow(probe), force_full_scan=True)
            assert planned and set(planned) == set(scanned)

    def test_every_narrow_probe_after_the_flood_stays_narrow(self):
        """No probe pays for the flooded bucket, and the same state plans
        the same way: the range probe leads the intersection every time."""
        store = _shifted_store()
        self._warm_then_flood(store)
        for probe in range(12):
            _, explain = store.query_explain(_narrow(probe))
            assert explain.path_kind == "index-intersection"
            assert explain.rows_scanned < 100
            plan = store.planner.plan(Q.find(_narrow(probe)).build())
            assert [path.kind for path in plan.path.paths] == ["attr-range", "attr-eq"]

    def test_fresh_constants_on_other_cities_stay_sound_after_the_flood(self):
        """Constants the warm-up never saw -- cities in and out of the
        flood -- each answer exactly like a forced full scan."""
        store = _shifted_store()
        self._warm_then_flood(store)
        for city, low in ((HOT, 1500), ("city-001", 200), ("city-004", 0), ("city-999", 10)):
            predicate = (Q.attr("city") == city) & Q.attr("sequence").between(low, low + 40)
            planned, _ = store.query_explain(predicate)
            scanned, _ = store.query_explain(predicate, force_full_scan=True)
            assert set(planned) == set(scanned)

    def test_the_estimate_follows_the_flood_on_the_next_plan(self):
        """Growth is priced by the very next query, with nothing to invalidate."""
        store = _shifted_store()
        predicate = Q.find(Q.attr("city") == HOT).build()
        assert store.planner.plan(predicate).estimated_rows == 100
        _flood(store, 1000, 800)
        assert store.planner.plan(predicate).estimated_rows == 900
        assert store.planner.plan(Q.find(Q.attr("city") == "city-001").build()).estimated_rows == 100


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

    def test_lru_eviction_at_the_entry_cap_keeps_cumulative_counters(self, monkeypatch):
        monkeypatch.setattr(feedback_mod, "_RESULT_CACHE_MAX", 2)
        store = self._cache_store()
        _populate(store, 300, cities=3)  # ~100 rows per city: every probe clears the floor
        for city in ("city-000", "city-001", "city-002", HOT):
            query = Query(AttributeEquals("city", city))
            for _ in range(_HOT_KEY_MIN_HITS + 1):
                _, explain = store.query_explain(query)
            assert explain.path_kind == "result-cache"  # a hit per key
        cache = store.feedback.snapshot()["result_cache"]
        assert cache["entries"] == 2
        assert cache["evictions"] == 2
        # Hits survive the evictions: the counter is cumulative, not a
        # sum over live entries.
        assert cache["hits"] == 4
        _, explain = store.query_explain(Query(AttributeEquals("city", "city-000")))
        assert explain.path_kind != "result-cache"  # evicted first, least recently used

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


class TestStatisticsWithoutRefresh:
    """The statistics, read off the indexes and the graph when asked, are
    the ones a recount produces, and queries never touch them."""

    def test_ingest_time_attribute_counts_equal_a_recount(self):
        store = _shifted_store()
        _flood(store, 1000, 800)
        store.ingest(TupleSet([], ProvenanceRecord({"extra": 1})))
        recount = {}
        for pname in store.pnames():
            for name in store.get_record(pname).attributes:
                recount[name] = recount.get(name, 0) + 1
        index = store.attribute_index
        names = [name for name in index.indexed_attributes() if not name.startswith("annotation:")]
        assert {name: index.attribute_entry_count(name) for name in names} == recount
        assert store.record_count == len(store.pnames()) == 1801

    def test_queries_leave_the_statistics_as_they_found_them(self):
        store = _shifted_store()
        _flood(store, 1000, 800)
        before = store.planner_statistics()
        for probe in range(200):
            store.query_explain(_narrow(probe % 80))
        assert store.planner_statistics() == before

    def test_parents_first_ingest_records_exact_depths(self):
        store = PassStore()
        grand = TupleSet([], _record("city-001", 0))
        parent = TupleSet([], _record("city-002", 1, ancestors=(grand.pname,)))
        child = TupleSet([], _record("city-003", 2, ancestors=(parent.pname,)))
        for tuple_set in (grand, parent, child):
            store.ingest(tuple_set)
        graph = store.planner_statistics()["graph"]
        assert graph["max_depth"] == 2
        assert graph["depth_histogram"] == {0: 1, 1: 1, 2: 1}

    def test_child_first_ingest_reports_the_exact_depth(self):
        """Depth is read off the graph as it stands, so child-first lineage
        reports the same depths as parents-first; the answers stay exact."""
        store = PassStore()
        grand = TupleSet([], _record("city-001", 0))
        parent = TupleSet([], _record("city-002", 1, ancestors=(grand.pname,)))
        child = TupleSet([], _record("city-003", 2, ancestors=(parent.pname,)))
        for tuple_set in (child, parent, grand):
            store.ingest(tuple_set)
        graph = store.planner_statistics()["graph"]
        assert graph["max_depth"] == 2
        assert graph["depth_histogram"] == {0: 1, 1: 1, 2: 1}
        assert store.ancestors(child.pname) == {parent.pname, grand.pname}
        found = store.query(Q.derived_from(grand.pname))
        assert set(found) == {parent.pname, child.pname}


def _tagged_store(attributes: dict, count: int) -> PassStore:
    store = PassStore()
    store.ingest_many(
        [TupleSet([], ProvenanceRecord(dict(attributes, sequence=i))) for i in range(count)]
    )
    return store


def _canonical(predicate) -> str:
    """``predicate`` as text with commutative parts sorted: equal iff the same question."""
    if isinstance(predicate, (And, Or)):
        return f"{type(predicate).__name__}({sorted(_canonical(part) for part in predicate.parts)})"
    if isinstance(predicate, AttributeIn):
        return f"AttributeIn({predicate.name!r}, {sorted(repr(value) for value in predicate.values)})"
    return repr(predicate)


#: a fixed population for the lineage placeholders of the parity suite's predicates
_LINEAGE_TARGETS = [ProvenanceRecord({"serial": index}) for index in range(3)]


class TestResultCacheKeys:
    """A hot key's cached answer is only ever served to the same question."""

    def _heat(self, store: PassStore, query: Query) -> list:
        for _ in range(_HOT_KEY_MIN_HITS + 1):
            answer, explain = store.query_explain(query)
        assert explain.path_kind == "result-cache"
        return answer

    def test_in_values_holding_separators_do_not_collide(self):
        store = _tagged_store({"tag": "x,s:y"}, 100)
        for index, tag in enumerate(("x", "x", "x", "y", "y")):
            store.ingest(TupleSet([], ProvenanceRecord({"tag": tag, "sequence": 1000 + index})))
        assert len(self._heat(store, Query(AttributeIn("tag", ("x,s:y",))))) == 100
        answer, explain = store.query_explain(Query(AttributeIn("tag", ("x", "y"))))
        assert explain.path_kind != "result-cache"
        assert len(answer) == 5

    def test_names_and_values_holding_separators_do_not_collide(self):
        store = _tagged_store({"a": "b=s:c"}, 100)
        for index in range(5):
            store.ingest(TupleSet([], ProvenanceRecord({"a=s:b": "c", "sequence": 1000 + index})))
        assert len(self._heat(store, Query(AttributeEquals("a", "b=s:c")))) == 100
        answer, explain = store.query_explain(Query(AttributeEquals("a=s:b", "c")))
        assert explain.path_kind != "result-cache"
        assert len(answer) == 5

    @given(st.lists(predicates, min_size=2, max_size=8))
    @settings(deadline=None)
    def test_equal_tokens_mean_equal_normalized_predicates(self, drawn):
        feedback = PassStore().feedback
        asked = {}
        for predicate in drawn:
            key = feedback.result_key(Query(_resolve(predicate, _LINEAGE_TARGETS)))
            if key is None:
                continue
            canonical = _canonical(normalize(key.predicate))
            assert asked.setdefault(key.token, canonical) == canonical
