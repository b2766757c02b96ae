"""Tests for the write-ahead log and crash recovery."""

from __future__ import annotations

import pytest

from repro.core import ProvenanceRecord
from repro.errors import StorageError
from repro.storage import MemoryBackend, WalEntry, WriteAheadLog


def _record(label: str):
    return ProvenanceRecord({"domain": "traffic", "label": label})


class TestWalEntry:
    def test_encode_decode_round_trip(self):
        entry = WalEntry(3, "put_record", "a" * 64, '{"x":1}')
        decoded = WalEntry.decode(entry.encode())
        assert decoded == entry

    def test_decode_rejects_missing_checksum(self):
        with pytest.raises(StorageError):
            WalEntry.decode('{"seq":1}')

    def test_decode_rejects_bad_checksum(self):
        entry = WalEntry(1, "put_record", "a" * 64, "{}").encode()
        corrupted = entry[:-1] + ("0" if entry[-1] != "0" else "1")
        with pytest.raises(StorageError):
            WalEntry.decode(corrupted)

    def test_decode_rejects_unknown_operation(self):
        import json
        import zlib

        body = json.dumps({"seq": 1, "op": "format_disk", "pname": "a" * 64, "payload": None},
                          sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
        with pytest.raises(StorageError):
            WalEntry.decode(f"{body}|{crc:08x}")


class TestWriteAheadLog:
    def test_sequence_increments(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal")
        assert wal.sequence == 0
        wal.log_put_record(_record("a"))
        wal.log_put_record(_record("b"))
        assert wal.sequence == 2

    def test_sequence_restored_from_disk(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.log_put_record(_record("a"))
        wal.log_put_record(_record("b"))
        assert WriteAheadLog(path).sequence == 2

    def test_entries_skips_torn_line(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal")
        wal.log_put_record(_record("a"))
        wal.inject_torn_write()
        wal.log_put_record(_record("b"))
        assert len(wal.entries()) == 1

    def test_replay_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal")
        record = _record("a")
        wal.log_put_record(record)
        backend = MemoryBackend()
        wal.replay(backend)
        second = wal.replay(backend)
        assert second.applied == 0
        assert second.skipped_duplicate == 1

    def test_replay_counts_corrupt_entries(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.log_put_record(_record("a"))
        wal.inject_torn_write()
        wal.log_put_record(_record("b"))
        backend = MemoryBackend()
        report = wal.replay(backend)
        assert report.applied == 1
        assert report.skipped_corrupt == 1

    def test_recovery_after_simulated_crash(self, tmp_path):
        """The E11 scenario in miniature: WAL ahead of a lost backend."""
        wal = WriteAheadLog(tmp_path / "log.wal")
        records = [_record(label) for label in "abcde"]
        backend = MemoryBackend()
        for index, record in enumerate(records):
            wal.log_put_record(record)
            if index < 3:
                backend.put_record(record)  # the rest were lost in the crash

        fresh = MemoryBackend()
        wal.replay(fresh)
        for record in records:
            assert fresh.has_record(record.pname())


def _backend_state(backend: MemoryBackend) -> tuple:
    """A full, comparable snapshot of what the backend holds."""
    records = {}
    payloads = {}
    for pname, record in backend.iter_records():
        records[pname.digest] = record.to_json()
        payloads[pname.digest] = backend.get_payload(pname)
    removed = {pname.digest for pname in backend.removed_pnames()}
    return records, payloads, removed


class TestReplayIdempotency:
    """Replaying the same log N times yields the identical backend state."""

    def _populated_wal(self, tmp_path, torn_tail: bool):
        wal = WriteAheadLog(tmp_path / "log.wal")
        first, second, third = _record("a"), _record("b"), _record("c")
        wal.log_put_record(first)
        wal.log_put_record(second)
        if torn_tail:
            wal.inject_torn_write()
        wal.log_put_record(third)  # torn when requested: must be discarded
        return wal

    @pytest.mark.parametrize("torn_tail", [False, True])
    def test_double_replay_matches_single_replay(self, tmp_path, torn_tail):
        wal = self._populated_wal(tmp_path, torn_tail)

        once = MemoryBackend()
        wal.replay(once)
        twice = MemoryBackend()
        wal.replay(twice)
        second_report = wal.replay(twice)

        assert _backend_state(once) == _backend_state(twice)
        # The second pass applied nothing: every intact entry was a duplicate.
        assert second_report.applied == 0
        assert second_report.skipped_duplicate == len(wal.entries())

    def test_torn_final_line_is_discarded_both_times(self, tmp_path):
        wal = self._populated_wal(tmp_path, torn_tail=True)
        backend = MemoryBackend()
        first = wal.replay(backend)
        second = wal.replay(backend)
        assert first.skipped_corrupt == 1
        assert second.skipped_corrupt == 1
        # The torn record never materializes, no matter how often we replay.
        assert backend.record_count() == 2

    def test_replay_onto_already_recovered_backend_is_a_noop(self, tmp_path):
        wal = self._populated_wal(tmp_path, torn_tail=False)
        backend = MemoryBackend()
        wal.replay(backend)
        before = _backend_state(backend)
        wal.replay(backend)
        assert _backend_state(backend) == before
