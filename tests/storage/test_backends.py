"""Tests for the in-memory and SQLite storage backends."""

from __future__ import annotations

import pytest

from repro.core import ProvenanceRecord
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
            "commit_ms", "parallel_scans", "parallel_probes", "per_shard",
        }
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
