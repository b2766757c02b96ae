"""Tests for the in-memory and SQLite storage backends."""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import Q, connect
from repro.core import Annotation, ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.errors import CrashInjectedError, StorageError
from repro.storage import MemoryBackend, ShardedBackend, SQLiteBackend


def _record(label: str, ancestors=()):
    return ProvenanceRecord({"domain": "traffic", "label": label}, ancestors=ancestors)


BACKEND_FACTORIES = {
    "memory": lambda tmp_path: MemoryBackend(),
    "sqlite": lambda tmp_path: SQLiteBackend(tmp_path / "test.db"),
    "sqlite-memory": lambda tmp_path: SQLiteBackend(":memory:"),
    "sharded": lambda tmp_path: ShardedBackend(str(tmp_path / "sharded.db"), shards=3),
    "sharded-memory": lambda tmp_path: ShardedBackend(None, shards=3, kind="memory"),
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend(request, tmp_path):
    instance = BACKEND_FACTORIES[request.param](tmp_path)
    yield instance
    instance.close()


class TestBackendContract:
    def test_put_get_record(self, backend):
        record = _record("a")
        backend.put_record(record)
        fetched = backend.get_record(record.pname())
        assert fetched is not None
        assert fetched.pname() == record.pname()
        assert backend.has_record(record.pname())
        assert backend.record_count() == 1

    def test_get_missing_record_is_none(self, backend):
        assert backend.get_record(_record("ghost").pname()) is None
        assert not backend.has_record(_record("ghost").pname())

    def test_put_record_overwrite_is_idempotent(self, backend):
        record = _record("a")
        backend.put_record(record)
        backend.put_record(record)
        assert backend.record_count() == 1

    def test_iter_records(self, backend):
        records = [_record(label) for label in "abc"]
        for record in records:
            backend.put_record(record)
        seen = {pname.digest for pname, _ in backend.iter_records()}
        assert seen == {record.pname().digest for record in records}

    def test_payload_round_trip(self, backend):
        record = _record("a")
        backend.put_record(record)
        backend.put_payload(record.pname(), b"\x00\x01payload")
        assert backend.get_payload(record.pname()) == b"\x00\x01payload"

    def test_payload_missing_is_none(self, backend):
        assert backend.get_payload(_record("ghost").pname()) is None

    def test_payload_requires_bytes(self, backend):
        with pytest.raises(StorageError):
            backend.put_payload(_record("a").pname(), "not-bytes")  # type: ignore[arg-type]

    def test_delete_payload_keeps_record(self, backend):
        record = _record("a")
        backend.put_record(record)
        backend.put_payload(record.pname(), b"data")
        assert backend.delete_payload(record.pname())
        assert backend.get_payload(record.pname()) is None
        assert backend.has_record(record.pname())

    def test_delete_missing_payload_returns_false(self, backend):
        assert not backend.delete_payload(_record("ghost").pname())

    def test_removed_markers(self, backend):
        record = _record("a")
        backend.put_record(record)
        assert not backend.is_removed(record.pname())
        backend.mark_removed(record.pname())
        assert backend.is_removed(record.pname())
        assert record.pname() in backend.removed_pnames()

    def test_stats_counters(self, backend):
        record = _record("a")
        backend.put_record(record)
        backend.put_payload(record.pname(), b"1234")
        backend.get_record(record.pname())
        snapshot = backend.stats.snapshot()
        assert snapshot["puts"] == 2
        assert snapshot["gets"] >= 1
        assert snapshot["payload_bytes"] == 4

    def test_use_after_close_raises(self, backend):
        backend.close()
        with pytest.raises(StorageError):
            backend.put_record(_record("a"))

    def test_index_blob_overwrite_returns_latest(self, backend):
        assert backend.put_index_blob("closure:test", b"v1")
        assert backend.put_index_blob("closure:test", b"v2")
        assert backend.get_index_blob("closure:test") == b"v2"
        assert backend.delete_index_blob("closure:test")
        assert backend.get_index_blob("closure:test") is None

    def test_put_batch_round_trip(self, backend):
        records = [_record(label) for label in "abcde"]
        backend.put_batch(
            [(record, f"p{i}".encode()) for i, record in enumerate(records)]
        )
        assert backend.record_count() == 5
        for i, record in enumerate(records):
            assert backend.get_payload(record.pname()) == f"p{i}".encode()
        snapshot = backend.storage_stats()
        assert snapshot["group_commits"] == 1
        assert snapshot["batch_records"] == 5

    def test_put_batch_rejects_bad_payload_with_no_partial_state(self, backend):
        """A bad entry anywhere in the batch rejects the whole batch:
        every backend validates up front, so none stores a prefix."""
        good, bad = _record("good"), _record("bad")
        with pytest.raises(StorageError):
            backend.put_batch([(good, b"fine"), (bad, "not-bytes")])
        assert backend.record_count() == 0
        assert not backend.has_record(good.pname())
        assert backend.storage_stats()["group_commits"] == 0

    def test_scan_all_matches_iter_records(self, backend):
        records = [_record(label) for label in "abcdef"]
        backend.put_batch([(record, None) for record in records])
        scanned = {pname.digest for pname, _ in backend.scan_all()}
        iterated = {pname.digest for pname, _ in backend.iter_records()}
        assert scanned == iterated == {r.pname().digest for r in records}

    def test_storage_stats_schema(self, backend):
        snapshot = backend.storage_stats()
        assert set(snapshot) == {
            "kind", "shards", "records", "group_commits", "batch_records",
            "commit_ms", "parallel_scans", "parallel_probes", "per_shard", "record_cache",
        }
        assert set(snapshot["record_cache"]) == {"capacity", "entries", "hits", "misses", "evictions"}
        assert snapshot["shards"] == backend.shard_count()
        assert len(snapshot["per_shard"]) == backend.shard_count()


class TestSQLiteSpecific:
    def test_durability_across_reopen(self, tmp_path):
        path = tmp_path / "durable.db"
        backend = SQLiteBackend(path)
        record = _record("a")
        child = _record("b", ancestors=(record.pname(),))
        backend.put_record(record)
        backend.put_record(child)
        backend.put_payload(record.pname(), b"payload")
        backend.mark_removed(record.pname())
        backend.close()

        reopened = SQLiteBackend(path)
        assert reopened.record_count() == 2
        assert reopened.get_payload(record.pname()) == b"payload"
        assert reopened.is_removed(record.pname())
        reopened.close()

    def test_crash_injection_after_n_writes(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "crash.db", crash_after_writes=2)
        backend.put_record(_record("a"))
        backend.put_record(_record("b"))
        with pytest.raises(CrashInjectedError):
            backend.put_record(_record("c"))
        # After the crash the backend is unusable.
        with pytest.raises(StorageError):
            backend.record_count()

    def test_crashed_backend_loses_nothing_acknowledged(self, tmp_path):
        path = tmp_path / "crash2.db"
        backend = SQLiteBackend(path, crash_after_writes=3)
        acknowledged = []
        for label in "abcdef":
            try:
                record = _record(label)
                backend.put_record(record)
                acknowledged.append(record.pname())
            except CrashInjectedError:
                break
        reopened = SQLiteBackend(path)
        for pname in acknowledged:
            assert reopened.has_record(pname)
        reopened.close()


class TestSQLiteRecordOrder:
    """``iter_records`` is in rowid order by statement, not by SQLite's choice of
    scan: the reopen replay and the index checkpoint's positions rest on it."""

    def test_a_rewritten_record_comes_last(self, tmp_path):
        path = tmp_path / "order.db"
        backend = SQLiteBackend(path)
        records = [_record(label) for label in "abcde"]
        backend.put_batch([(record, None) for record in records])
        records[1].annotate(Annotation("quality", "good"))
        backend.put_record(records[1])  # INSERT OR REPLACE: a fresh, larger rowid
        expected = [records[at].pname() for at in (0, 2, 3, 4, 1)]
        assert [pname for pname, _ in backend.iter_records()] == expected
        digests, marker = backend.record_order()
        assert digests == [pname.digest for pname in expected]
        assert marker == 6  # five inserts, then the rewrite took the next rowid
        assert backend.record_order(upto=4) == ([pname.digest for pname in expected[:3]], 4)
        assert [pname for pname, _ in backend.iter_records(after=4)] == expected[3:]
        assert backend.record_order(upto=0) == ([], 0)
        backend.close()
        # the same after a reopen: the order is the file's, not the session's
        reopened = SQLiteBackend(path)
        assert [pname for pname, _ in reopened.iter_records()] == expected
        reopened.close()

    def test_the_scan_asks_for_rowid_order(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "plan.db")
        statements = []
        backend._connection.set_trace_callback(statements.append)
        list(backend.iter_records())
        assert [text for text in statements if "FROM records" in text][0].endswith("ORDER BY rowid")
        backend.close()

    def test_backends_without_an_order_say_so(self, tmp_path):
        assert MemoryBackend().record_order() is None
        sharded = ShardedBackend(str(tmp_path / "sharded.db"), shards=2)
        assert sharded.record_order() is None
        sharded.close()


class TestDecodedRecordCache:
    """The bounded digest -> decoded-record map under ``SQLiteBackend``
    (docs/STORAGE.md, "Read path"): what it may hold, and when."""

    @staticmethod
    def _set(label: int, parent=None) -> TupleSet:
        attributes = {"domain": "traffic", "label": label}
        record = ProvenanceRecord(attributes) if parent is None else parent.derive(attributes)
        return TupleSet([SensorReading("s", Timestamp(float(label)), {"v": float(label)})], record)

    def test_counts_every_record_asked_for(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "count.db")
        records = [_record(label) for label in "abcd"]
        backend.put_batch([(record, None) for record in records])
        ghost = _record("ghost").pname()
        assert backend.get_record(records[0].pname()) is records[0]
        assert backend.get_record(ghost) is None
        asked = [record.pname() for record in records] + [ghost, records[0].pname()]
        assert [record for _, record in backend.get_records(asked)] == records + records[:1]
        cache = backend.record_cache_stats()
        assert (cache["hits"], cache["misses"]) == (6, 2)  # 8 records asked for, one twice
        assert cache["entries"] == 4  # an absent record is not remembered
        backend.close()

    def test_annotate_is_visible_on_a_warm_read_and_after_reopen(self, tmp_path):
        url = f"sqlite:///{tmp_path}/annotate.db"
        client = connect(url)
        pname = client.publish(self._set(1)).first()
        assert client.describe_record(pname).annotations == []  # warm
        note = Annotation("quality", "good", author="ops")
        client.store.annotate(pname, note)
        assert client.describe_record(pname).annotations == [note]
        client.close()
        client = connect(url)
        assert client.describe_record(pname).annotations == [note]
        client.close()

    def test_a_rewritten_record_replaces_the_cached_object(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "replace.db")
        first = _record("a")
        backend.put_record(first)
        second = ProvenanceRecord.from_json(first.to_json())  # same PName, another object
        second.annotate(Annotation("quality", "good"))
        backend.put_record(second)
        assert backend.get_record(first.pname()) is second
        assert backend.record_cache_stats()["entries"] == 1
        backend.close()

    def test_a_crashed_batch_leaves_nothing_behind(self, tmp_path):
        path = tmp_path / "crash.db"
        backend = SQLiteBackend(path, crash_after_writes=2)
        kept = _record("kept")
        backend.put_batch([(kept, b"data")])
        batch = [_record(label) for label in "abc"]
        with pytest.raises(CrashInjectedError):
            backend.put_batch([(record, None) for record in batch])
        assert backend.record_cache_stats()["entries"] == 0  # the crash path drops the map
        reopened = SQLiteBackend(path)
        assert reopened.has_record(kept.pname())
        assert not any(reopened.has_record(record.pname()) for record in batch)
        reopened.close()

    def test_a_failed_batch_is_not_cached(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "failed.db")
        backend.put_record(_record("kept"))
        before = backend.record_cache_stats()["entries"]
        batch = [_record(label) for label in "abc"]
        backend._connection.execute("PRAGMA query_only=ON")
        with pytest.raises(sqlite3.OperationalError):
            backend.put_batch([(record, None) for record in batch])
        backend._connection.execute("PRAGMA query_only=OFF")
        assert backend.record_cache_stats()["entries"] == before
        assert backend.get_records([record.pname() for record in batch]) == []
        backend.close()

    def test_a_put_record_that_raises_drops_the_entry(self, tmp_path):
        """``annotate`` mutates the shared object, then writes it: if the
        write fails, reads must not show what the file never got."""
        backend = SQLiteBackend(tmp_path / "raise.db")
        record = _record("a")
        backend.put_record(record)
        assert backend.get_record(record.pname()) is record
        record.annotate(Annotation("quality", "never-written"))
        backend._connection.execute("PRAGMA query_only=ON")
        with pytest.raises(sqlite3.OperationalError):
            backend.put_record(record)
        backend._connection.execute("PRAGMA query_only=OFF")
        assert backend.record_cache_stats()["entries"] == 0
        fetched = backend.get_record(record.pname())
        assert fetched is not record and fetched.annotations == []
        backend.close()

    def test_remove_data_with_a_warm_cache_keeps_the_record(self, tmp_path):
        client = connect(f"sqlite:///{tmp_path}/remove.db")
        pname = client.publish(self._set(1)).first()
        record = client.describe_record(pname)  # warm
        client.store.remove_data(pname)
        assert client.describe_record(pname) is record  # P4: no record was touched
        assert client.store.is_removed(pname)
        assert client.store.get_readings(pname) == []
        client.close()

    def test_entries_never_exceed_the_capacity(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.storage.sqlite.RECORD_CACHE_CAPACITY", 4)
        client = connect(f"sqlite:///{tmp_path}/bound.db")
        sets = [self._set(label) for label in range(20)]
        for tuple_set in sets[:10]:
            client.publish(tuple_set)
            assert client.store.backend.record_cache_stats()["entries"] <= 4
        client.publish_many(sets[10:])
        for _ in range(2):  # every record reads back, cached or not
            for tuple_set in sets:
                fetched = client.describe_record(tuple_set.pname)
                assert fetched.to_json() == tuple_set.provenance.to_json()
        assert len(client.query(Q.attr("domain") == "traffic")) == 20
        cache = client.store.backend.record_cache_stats()
        assert cache["capacity"] == 4 and cache["entries"] == 4
        assert cache["evictions"] >= 16
        client.close()

    def test_scans_and_reopen_do_not_fill_it(self, tmp_path):
        url = f"sqlite:///{tmp_path}/scan.db"
        client = connect(url)
        root = self._set(0)
        client.publish_many([root, self._set(1, parent=root.provenance), self._set(2)])
        client.store.remove_data(root.pname)
        client.close()
        client = connect(url)  # replays every record through iter_records
        backend = client.store.backend
        assert len(backend.scan_all()) == len(list(backend.iter_records())) == 3
        assert len(client.store.pnames()) == 3
        cache = backend.record_cache_stats()
        assert (cache["entries"], cache["hits"], cache["misses"]) == (0, 0, 0)
        # ... but a scan hands out what a fetch has already decoded
        fetched = backend.get_record(root.pname)
        assert dict(backend.scan_all())[root.pname] is fetched
        client.close()
        assert backend.record_cache_stats()["entries"] == 0  # close() drops it
