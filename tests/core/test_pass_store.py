"""Tests for the local PASS store: ingest, query, lineage, the four properties."""

from __future__ import annotations

import pytest

import repro
from repro.core import (
    Agent,
    AgentIs,
    AncestorOf,
    And,
    Annotation,
    AnnotationMatches,
    AttributeEquals,
    DerivedFrom,
    GeoPoint,
    IsRaw,
    PassStore,
    PName,
    ProvenanceRecord,
    Query,
    SensorReading,
    Timestamp,
    TupleSet,
)
from repro.errors import (
    CrashInjectedError,
    DuplicateProvenanceError,
    ProvenanceError,
    UnknownEntityError,
)
from repro.storage.sqlite import SQLiteBackend


def _tuple_set(label: str, readings_count: int = 2, ancestors=()):
    record = ProvenanceRecord(
        {
            "domain": "traffic",
            "label": label,
            "window_start": Timestamp(0.0),
            "window_end": Timestamp(300.0),
            "location": GeoPoint(51.5, -0.12),
        },
        ancestors=ancestors,
    )
    readings = [
        SensorReading(f"sensor-{i}", Timestamp(float(i)), {"v": float(i)})
        for i in range(readings_count)
    ]
    return TupleSet(readings, record)


class TestIngest:
    def test_ingest_returns_pname(self, store):
        ts = _tuple_set("a")
        assert store.ingest(ts) == ts.pname
        assert ts.pname in store
        assert len(store) == 1

    def test_ingest_is_idempotent_for_identical_data(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        store.ingest(ts)
        assert len(store) == 1

    def test_ingest_rejects_different_data_same_provenance(self, store):
        ts = _tuple_set("a", readings_count=3)
        store.ingest(ts)
        impostor = TupleSet(ts.readings[:1], ts.provenance)
        with pytest.raises(DuplicateProvenanceError):
            store.ingest(impostor)

    def test_ingest_record_metadata_only(self, store):
        record = ProvenanceRecord({"domain": "traffic", "label": "meta"})
        pname = store.ingest_record(record)
        assert pname in store
        assert store.get_readings(pname) == []

    def test_ingest_many_matches_looped_ingest(self):
        sets = [_tuple_set(f"batch-{i}") for i in range(6)]
        child = TupleSet(
            [], sets[0].provenance.derive({"stage": "derived", "domain": "traffic"})
        )
        looped = PassStore()
        for tuple_set in sets + [child]:
            looped.ingest(tuple_set)
        batched = PassStore()
        pnames = batched.ingest_many(sets + [child])
        assert pnames == [ts.pname for ts in sets + [child]]
        assert len(batched) == len(looped)
        assert batched.ancestors(child.pname) == looped.ancestors(child.pname)
        assert batched.stats.ingested == looped.stats.ingested
        assert batched.verify_invariants() == []

    def test_ingest_many_is_idempotent_and_checks_duplicates(self, store):
        ts = _tuple_set("a", readings_count=3)
        store.ingest_many([ts, ts])  # duplicate within a batch is fine
        assert len(store) == 1
        store.ingest_many([ts])  # already stored is fine
        assert len(store) == 1
        impostor = TupleSet(ts.readings[:1], ts.provenance)
        with pytest.raises(DuplicateProvenanceError):
            store.ingest_many([impostor])
        with pytest.raises(DuplicateProvenanceError):
            PassStore().ingest_many([ts, impostor])

    def test_ingest_many_attaches_payload_to_metadata_only_record(self, store):
        ts = _tuple_set("a")
        store.ingest_record(ts.provenance)
        assert store.get_readings(ts.pname) == []
        store.ingest_many([ts])
        assert len(store.get_readings(ts.pname)) == len(ts)

    def test_ingest_many_on_sqlite_backend(self, tmp_path):
        store = PassStore(backend=SQLiteBackend(tmp_path / "batch.db"))
        sets = [_tuple_set(f"durable-{i}") for i in range(5)]
        store.ingest_many(sets)
        reopened = PassStore(backend=SQLiteBackend(tmp_path / "batch.db"))
        assert len(reopened) == 5
        for tuple_set in sets:
            assert tuple_set.pname in reopened

    def test_readings_round_trip(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        readings = store.get_readings(ts.pname)
        assert len(readings) == len(ts)
        assert readings[0].sensor_id == "sensor-0"
        assert readings[0].values["v"] == 0.0

    def test_stored_payload_with_an_unknown_value_tag_raises(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        tagged = b'[{"sensor_id":"s","timestamp":0.0,"values":{"v":{"__type__":"matrix"}}}]'
        store.backend.put_payload(ts.pname, tagged)
        with pytest.raises(ProvenanceError, match="matrix"):
            store.get_readings(ts.pname)

    def test_get_tuple_set_round_trip(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        rebuilt = store.get_tuple_set(ts.pname)
        assert rebuilt.pname == ts.pname
        assert len(rebuilt) == len(ts)

    def test_get_unknown_record_raises(self, store):
        with pytest.raises(UnknownEntityError):
            store.get_record(_tuple_set("ghost").pname)

    def test_stats_count_ingests(self, store):
        store.ingest(_tuple_set("a"))
        store.ingest(_tuple_set("b"))
        assert store.stats.ingested == 2


class TestQueries:
    def test_attribute_equality_uses_index(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        store.ingest(_tuple_set("b"))
        results = store.query(AttributeEquals("label", "a"))
        assert results == [ts.pname]

    def test_and_query_picks_most_selective_index(self, store):
        for label in ("a", "b", "c"):
            store.ingest(_tuple_set(label))
        query = Query(And((AttributeEquals("domain", "traffic"), AttributeEquals("label", "b"))))
        results = store.query(query)
        assert len(results) == 1

    def test_query_records_returns_pairs(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        pairs = store.query_records(AttributeEquals("label", "a"))
        assert pairs[0][0] == ts.pname
        assert pairs[0][1].get("label") == "a"

    def test_lineage_predicates_in_queries(self, store):
        parent = _tuple_set("parent")
        store.ingest(parent)
        child_record = parent.provenance.derive({"stage": "derived", "domain": "traffic"})
        child = TupleSet([], child_record)
        store.ingest(child)
        derived = store.query(DerivedFrom(parent.pname))
        ancestors = store.query(AncestorOf(child.pname))
        assert derived == [child.pname]
        assert ancestors == [parent.pname]

    def test_is_raw_query(self, store):
        parent = _tuple_set("parent")
        store.ingest(parent)
        child = TupleSet([], parent.provenance.derive({"stage": "derived", "domain": "traffic"}))
        store.ingest(child)
        assert set(store.query(IsRaw(True))) == {parent.pname}
        assert set(store.query(IsRaw(False))) == {child.pname}

    def test_agent_query(self, store):
        record = ProvenanceRecord(
            {"domain": "traffic", "label": "x"}, agents=(Agent("program", "sharpen", "2.0"),)
        )
        store.ingest(TupleSet([], record))
        assert store.query(AgentIs("sharpen")) == [record.pname()]

    def test_temporal_index_populated(self, store):
        store.ingest(_tuple_set("a"))
        hits = store.temporal_index.overlapping(Timestamp(0.0), Timestamp(100.0))
        assert len(hits) == 1

    def test_spatial_index_populated(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        hits = store.spatial_index.within_radius(GeoPoint(51.5, -0.12), 10.0)
        assert ts.pname.digest in hits


class TestAnnotations:
    def test_annotation_persisted_and_queryable(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        store.annotate(ts.pname, Annotation("sensor-replaced", "cam-07", author="ops"))
        record = store.get_record(ts.pname)
        assert any(a.key == "sensor-replaced" for a in record.annotations)
        assert store.query(AnnotationMatches("sensor-replaced", "cam-07")) == [ts.pname]

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "sqlite"])
    def test_annotation_answers_attribute_predicates_before_and_after_reopen(
        self, tmp_path, durable
    ):
        """``annotate`` says it indexes the annotation: ``annotation:<key>``
        reads the latest one, by index probe and by full scan alike."""
        def open_store():
            return PassStore(backend=SQLiteBackend(tmp_path / "notes.db") if durable else None)

        store = open_store()
        noted, plain = _tuple_set("noted"), _tuple_set("plain")
        store.ingest_many([noted, plain])
        store.get_record(noted.pname)  # a warm read: annotate must reach it
        store.annotate(noted.pname, Annotation("quality", "bad"))
        store.annotate(noted.pname, Annotation("quality", "good"))
        for reopened in range(2 if durable else 1):
            if reopened:
                store.backend.close()
                store = open_store()
            for force_full_scan in (False, True):
                def answer(value):
                    query = Query(AttributeEquals("annotation:quality", value))
                    digests, _ = store.query_explain(query, force_full_scan=force_full_scan)
                    return [PName(digest) for digest in digests]

                assert answer("good") == [noted.pname]
                assert answer("bad") == []  # superseded
            assert store.attribute_index.lookup("annotation:quality", "good") == {noted.pname.digest}
            assert store.get_record(noted.pname).get("annotation:quality") == "good"
            assert store.get_record(plain.pname).get("annotation:quality") is None

    def test_an_attribute_wins_over_an_annotation_of_its_name(self):
        record = ProvenanceRecord({"annotation:quality": "attr", "label": "a"})
        pname = record.pname()
        record.annotate(Annotation("quality", "note"))
        record.annotate(Annotation("label", "note"))
        assert record.get("annotation:quality") == "attr"
        assert record.get("annotation:label") == "note"
        assert record.get("annotation:missing", "fallback") == "fallback"
        assert record.pname() == pname and "note" not in record.canonical()


class TestLineage:
    def _chain(self, store, depth=4):
        sets = [_tuple_set("root")]
        store.ingest(sets[0])
        for level in range(depth):
            record = sets[-1].provenance.derive({"stage": f"level-{level}", "domain": "traffic"})
            derived = TupleSet([], record)
            store.ingest(derived)
            sets.append(derived)
        return sets

    def test_ancestors_and_descendants(self, store):
        sets = self._chain(store, depth=3)
        assert store.ancestors(sets[-1].pname) == {ts.pname for ts in sets[:-1]}
        assert store.descendants(sets[0].pname) == {ts.pname for ts in sets[1:]}

    def test_raw_sources(self, store):
        sets = self._chain(store, depth=3)
        assert store.raw_sources(sets[-1].pname) == {sets[0].pname}

    def test_derivation_path(self, store):
        sets = self._chain(store, depth=3)
        path = store.derivation_path(sets[-1].pname, sets[0].pname)
        assert path[0] == sets[-1].pname
        assert path[-1] == sets[0].pname

    def test_is_ancestor_for_unknown_nodes_is_false(self, store):
        assert not store.is_ancestor(_tuple_set("x").pname, _tuple_set("y").pname)

    def test_lineage_of_unknown_node_raises(self, store):
        with pytest.raises(UnknownEntityError):
            store.ancestors(_tuple_set("ghost").pname)

    def test_closure_strategy_choice_does_not_change_answers(self):
        answers = {}
        for strategy in ("naive", "memoized", "labelled"):
            store = PassStore(closure=strategy)
            sets = self._chain(store, depth=5)
            answers[strategy] = store.ancestors(sets[-1].pname)
        assert answers["naive"] == answers["memoized"] == answers["labelled"]

    def test_shared_closure_instance_is_not_corrupted(self):
        """Passing one strategy instance to two stores must not alias state."""
        from repro.core.closure import LabelledClosure

        shared = LabelledClosure()
        first = PassStore(closure=shared)
        second = PassStore(closure=shared)
        # Each store got its own sibling bound to its own graph.
        assert first.closure is not shared and second.closure is not shared
        assert first.closure is not second.closure
        assert first.closure.graph is first.graph
        assert second.closure.graph is second.graph
        # The caller's instance keeps its own (empty) graph untouched.
        first.ingest(_tuple_set("a"))
        second.ingest(_tuple_set("b"))
        assert len(shared.graph) == 0
        assert _tuple_set("b").pname not in first.graph
        assert _tuple_set("a").pname not in second.graph


class TestPassProperties:
    def test_p4_removal_keeps_provenance_and_lineage(self, store):
        parent = _tuple_set("parent")
        store.ingest(parent)
        child = TupleSet([], parent.provenance.derive({"stage": "derived", "domain": "traffic"}))
        store.ingest(child)

        store.remove_data(parent.pname)

        assert store.is_removed(parent.pname)
        assert parent.pname in store  # record still there
        assert store.get_readings(parent.pname) == []  # data gone
        assert store.ancestors(child.pname) == {parent.pname}
        assert store.verify_invariants() == []

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "sqlite-reopened"])
    @pytest.mark.parametrize("batched", [False, True], ids=["ingest", "ingest_many"])
    def test_p4_republishing_removed_data_keeps_it_removed(self, tmp_path, durable, batched):
        def open_store():
            return PassStore(SQLiteBackend(tmp_path / "pass.db")) if durable else PassStore()

        def publish(store, ts):
            return store.ingest_many([ts])[0] if batched else store.ingest(ts)

        store = open_store()
        ts = _tuple_set("a")
        publish(store, ts)
        store.remove_data(ts.pname)
        # A record first known by provenance alone is not "removed": it
        # still gets its data attached by a later full publish.
        late = _tuple_set("late")
        store.ingest_record(late.provenance)
        if durable:
            store.backend.close()
            store = open_store()
        fired = []
        store.add_ingest_hook(lambda pname, record: fired.append(pname))

        assert publish(store, ts) == ts.pname
        assert store.is_removed(ts.pname)
        assert store.get_readings(ts.pname) == []
        # The payload is gone, so P3 has nothing to compare against: the
        # only safe answer to *different* data under that PName is the
        # same one -- nothing is attached.
        other = TupleSet(_tuple_set("a", readings_count=5).readings, ts.provenance)
        assert publish(store, other) == ts.pname
        assert store.get_readings(ts.pname) == []

        assert publish(store, late) == late.pname
        assert store.get_readings(late.pname) == late.readings
        assert not store.is_removed(late.pname)
        assert fired == []
        assert store.verify_invariants() == []

    def test_remove_unknown_raises(self, store):
        with pytest.raises(UnknownEntityError):
            store.remove_data(_tuple_set("ghost").pname)

    def test_query_can_exclude_removed(self, store):
        ts = _tuple_set("a")
        store.ingest(ts)
        store.remove_data(ts.pname)
        with_removed = store.query(Query(AttributeEquals("label", "a")))
        without_removed = store.query(Query(AttributeEquals("label", "a"), include_removed=False))
        assert with_removed == [ts.pname]
        assert without_removed == []

    def test_verify_invariants_clean_store(self, populated_store):
        assert populated_store.verify_invariants() == []


class TestSQLiteBackedStore:
    def test_sqlite_round_trip_and_rebuild(self, tmp_path):
        path = tmp_path / "pass.db"
        backend = SQLiteBackend(path)
        store = PassStore(backend=backend)
        parent = _tuple_set("parent")
        store.ingest(parent)
        child = TupleSet([], parent.provenance.derive({"stage": "derived", "domain": "traffic"}))
        store.ingest(child)
        store.remove_data(parent.pname)
        backend.close()

        reopened = PassStore(backend=SQLiteBackend(path))
        assert len(reopened) == 2
        assert reopened.is_removed(parent.pname)
        assert reopened.ancestors(child.pname) == {parent.pname}
        assert reopened.query(AttributeEquals("label", "parent")) == [parent.pname]

    def test_reopen_reads_the_removal_markers_once(self, tmp_path):
        """Not one ``is_removed`` statement per replayed record."""
        path = tmp_path / "markers.db"
        store = PassStore(backend=SQLiteBackend(path))
        sets = [_tuple_set(label) for label in "abcde"]
        store.ingest_many(sets)
        store.remove_data(sets[1].pname)
        store.remove_data(sets[3].pname)
        store.backend.close()

        class CountingBackend(SQLiteBackend):
            is_removed_calls = 0

            def is_removed(self, pname):
                self.is_removed_calls += 1
                return super().is_removed(pname)

        backend = CountingBackend(path)
        reopened = PassStore(backend=backend)
        assert backend.is_removed_calls == 0
        assert [reopened.graph.is_removed(ts.pname) for ts in sets] == [
            False, True, False, True, False,
        ]

    def test_crash_inside_a_single_publish_leaves_neither_record_nor_payload(self, tmp_path):
        path = tmp_path / "crash.db"
        ts = _tuple_set("a")
        # A publish is two writes (record + payload) in one transaction;
        # the crash lands on the second.
        store = PassStore(SQLiteBackend(path, crash_after_writes=1))
        with pytest.raises(CrashInjectedError):
            store.ingest(ts)

        reopened = PassStore(SQLiteBackend(path))
        assert len(reopened) == 0
        assert ts.pname not in reopened
        assert reopened.backend.get_payload(ts.pname) is None
        assert reopened.verify_invariants() == []

    def test_crash_inside_a_batch_leaves_nothing_of_the_batch(self, tmp_path):
        path = tmp_path / "crash.db"
        before = _tuple_set("before")
        batch = [_tuple_set(label) for label in "abc"]
        # 2 writes for the acknowledged publish, then the crash on the
        # 4th of the batch's 6.
        store = PassStore(SQLiteBackend(path, crash_after_writes=5))
        store.ingest(before)
        with pytest.raises(CrashInjectedError):
            store.ingest_many(batch)

        reopened = PassStore(SQLiteBackend(path))
        assert reopened.pnames() == [before.pname]
        assert reopened.get_readings(before.pname) == before.readings
        for ts in batch:
            assert reopened.backend.get_payload(ts.pname) is None
        assert reopened.verify_invariants() == []


# ----------------------------------------------------------------------
# The duplicate check asks the graph first, the backend only about a name it knows
# ----------------------------------------------------------------------
TARGETS = {
    "memory": ("memory://", False),
    "sqlite": ("sqlite:///{dir}/pass.db", False),
    "sqlite-reopened": ("sqlite:///{dir}/pass.db", True),
    "sharded": ("sqlite:///{dir}/pass.db?shards=2", False),
    "sharded-reopened": ("sqlite:///{dir}/pass.db?shards=2", True),
}


class TestDuplicatesThroughTheGraphFirstCheck:
    """P3/P4 on every way a PName can already be known, before and after a reopen."""

    @pytest.fixture(params=list(TARGETS), autouse=True)
    def target(self, request, tmp_path):
        template, self.reopens = TARGETS[request.param]
        self.url = template.format(dir=tmp_path)
        self.opened = []
        yield
        for client in self.opened:
            client.close()

    def session(self, client):
        """The client to go on with: the same one, or a reopen of its file."""
        if not self.reopens:
            return client
        client.close()
        self.opened.append(repro.connect(self.url))
        return self.opened[-1]

    @staticmethod
    def _stored(client) -> list:
        """Every row identity the backend can show: a rewrite would move one."""
        backend = client.store.backend
        order = backend.record_order()
        return order if order is not None else sorted(p.digest for p, _ in backend.iter_records())

    def test_the_same_set_again_is_idempotent_and_rewrites_nothing(self):
        first, second = _tuple_set("a", readings_count=3), _tuple_set("b")
        with repro.connect(self.url) as client:
            client.publish_many([first, second])
            client = self.session(client)
            store, fired = client.store, []
            store.add_ingest_hook(lambda pname, record: fired.append(pname))
            stored, entries, ingested = self._stored(client), store.attribute_index.entry_count(), store.stats.ingested
            assert client.publish(first).first() == first.pname
            assert list(client.publish_many([second, first, second]).records) == [second.pname, first.pname, second.pname]
            assert self._stored(client) == stored and len(store) == 2
            assert store.attribute_index.entry_count() == entries
            assert fired == [] and store.stats.ingested == ingested
            assert store.get_readings(first.pname) == first.readings
            assert store.verify_invariants() == []

    def test_different_data_under_the_same_provenance_is_refused(self):
        honest = _tuple_set("a", readings_count=3)
        impostor = TupleSet(honest.readings[:1], honest.provenance)
        with repro.connect(self.url) as client:
            # inside one batch, against nothing stored
            with pytest.raises(DuplicateProvenanceError):
                client.publish_many([honest, impostor])
            assert len(client.store) == 0
            client.publish(honest)
            client = self.session(client)
            with pytest.raises(DuplicateProvenanceError):
                client.publish(impostor)
            with pytest.raises(DuplicateProvenanceError):
                client.publish_many([_tuple_set("b"), impostor])
            assert client.store.get_readings(honest.pname) == honest.readings
            assert _tuple_set("b").pname not in client.store
            assert client.store.verify_invariants() == []

    def test_a_name_first_seen_as_an_ancestor_is_stored_and_indexed_when_published(self):
        parent = _tuple_set("parent")
        child = _tuple_set("child", ancestors=[parent.pname])
        with repro.connect(self.url) as client:
            client.publish(child)
            assert parent.pname in client.store.graph and parent.pname not in client.store
            client = self.session(client)
            assert client.publish(parent).first() == parent.pname
            store = client.store
            assert parent.pname in store and len(store) == 2
            assert store.get_readings(parent.pname) == parent.readings
            assert store.query(AttributeEquals("label", "parent")) == [parent.pname]
            assert store.descendants(parent.pname) == {child.pname}
            assert store.verify_invariants() == []

    def test_a_metadata_only_record_gets_its_data_attached_once(self):
        late = _tuple_set("late", readings_count=3)
        with repro.connect(self.url) as client:
            client.store.ingest_record(late.provenance)
            client = self.session(client)
            stored = self._stored(client)
            assert client.store.get_readings(late.pname) == []
            assert client.publish(late).first() == late.pname
            assert client.store.get_readings(late.pname) == late.readings
            with pytest.raises(DuplicateProvenanceError):
                client.publish(TupleSet(late.readings[:1], late.provenance))
            assert self._stored(client) == stored
            assert client.store.verify_invariants() == []

    def test_removed_data_stays_removed(self):
        gone = _tuple_set("gone")
        with repro.connect(self.url) as client:
            client.publish(gone)
            client.store.remove_data(gone.pname)
            client = self.session(client)
            assert client.publish(gone).first() == gone.pname
            assert list(client.publish_many([gone]).records) == [gone.pname]
            assert client.store.is_removed(gone.pname)
            assert client.store.get_readings(gone.pname) == []
            assert client.store.verify_invariants() == []

    def test_the_backend_is_asked_only_about_names_the_graph_knows(self, monkeypatch):
        parent, other = _tuple_set("parent"), _tuple_set("other")
        child = _tuple_set("child", ancestors=[parent.pname])
        with repro.connect(self.url) as client:
            client.publish(other)
            client = self.session(client)
            backend, asked = client.store.backend, []
            probe = backend.has_record
            monkeypatch.setattr(backend, "has_record", lambda pname: asked.append(pname) or probe(pname))
            client.publish_many([child, _tuple_set("x"), _tuple_set("y")])  # never seen: no probe
            assert asked == []
            client.publish(parent)  # known as child's ancestor, not stored: probed, found fresh
            client.publish(other)  # stored: probed, found
            client.publish_many([_tuple_set("z"), other])
            assert asked == [parent.pname, other.pname, other.pname]
            assert len(client.store) == 6
