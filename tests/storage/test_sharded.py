"""Tests for the digest-partitioned sharded backend."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core import ProvenanceRecord
from repro.errors import StorageError
from repro.storage import ShardedBackend, WriteAheadLog, make_backend, shard_of_digest
from repro.storage.sharded import MANIFEST_BLOB, shard_file_name


def _record(label: str, ancestors=()):
    return ProvenanceRecord({"domain": "traffic", "label": label}, ancestors=ancestors)


def _records(count: int):
    return [_record(f"r{i:04d}") for i in range(count)]


class TestPartitioner:
    # Baked-in expectations: the assignment is a pure function of the
    # digest text, so these hold in every interpreter run on every host.
    KNOWN = {
        ("0" * 64, 4): 0,
        ("0" * 7 + "1" + "0" * 56, 4): 1,
        ("f" * 64, 4): int("ffffffff", 16) % 4,
        ("89abcdef" + "0" * 56, 8): int("89abcdef", 16) % 8,
        ("deadbeef" + "f" * 56, 3): int("deadbeef", 16) % 3,
    }

    def test_known_assignments(self):
        for (digest, shards), expected in self.KNOWN.items():
            assert shard_of_digest(digest, shards) == expected

    def test_only_the_leading_32_bits_matter(self):
        head = "12345678"
        assert shard_of_digest(head + "0" * 56, 16) == shard_of_digest(
            head + "f" * 56, 16
        )

    def test_assignment_is_hash_salt_independent(self):
        """The same digests map to the same shards under different
        PYTHONHASHSEED values -- the partitioner must never route through
        Python's per-process salted hash()."""
        digests = [_record(f"x{i}").pname().digest for i in range(8)]
        script = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.storage import shard_of_digest; "
            "print([shard_of_digest(d, 5) for d in sys.argv[2:]])"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [sys.executable, "-c", script, src, *digests],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
        assert outputs.pop() == str([shard_of_digest(d, 5) for d in digests])

    def test_every_shard_is_reachable(self):
        shards = 4
        hit = {shard_of_digest(r.pname().digest, shards) for r in _records(200)}
        assert hit == set(range(shards))

    def test_records_land_on_their_digest_shard(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=4)
        records = _records(40)
        backend.put_batch([(record, None) for record in records])
        for record in records:
            expected = backend.shard_of(record.pname().digest)
            for index, shard in enumerate(backend.shard_backends):
                assert shard.has_record(record.pname()) == (index == expected)
        backend.close()


class TestManifest:
    def test_reopen_with_same_count_keeps_records(self, tmp_path):
        path = str(tmp_path / "pass.db")
        backend = ShardedBackend(path, shards=3)
        records = _records(12)
        backend.put_batch([(r, b"payload") for r in records])
        backend.close()
        reopened = ShardedBackend(path, shards=3)
        assert reopened.record_count() == 12
        for record in records:
            assert reopened.get_payload(record.pname()) == b"payload"
        reopened.close()

    def test_reopen_with_different_count_raises(self, tmp_path):
        path = str(tmp_path / "pass.db")
        ShardedBackend(path, shards=3).close()
        with pytest.raises(StorageError, match="created with shards=3"):
            ShardedBackend(path, shards=5)

    def test_plain_open_of_sharded_base_raises(self, tmp_path):
        path = str(tmp_path / "pass.db")
        ShardedBackend(path, shards=2).close()
        with pytest.raises(StorageError, match="base of a sharded database"):
            make_backend("sqlite", path=path)

    def test_sharded_open_of_plain_database_raises(self, tmp_path):
        path = str(tmp_path / "plain.db")
        make_backend("sqlite", path=path).close()
        with pytest.raises(StorageError, match="existing unsharded"):
            make_backend("sqlite", path=path, shards=4)

    def test_missing_manifest_on_populated_shard0_raises(self, tmp_path):
        path = str(tmp_path / "pass.db")
        backend = ShardedBackend(path, shards=2)
        backend.put_batch([(record, None) for record in _records(8)])
        backend.shard_backends[0].delete_index_blob(MANIFEST_BLOB)
        backend.close()
        with pytest.raises(StorageError, match="no shard manifest"):
            ShardedBackend(path, shards=2)

    def test_missing_shard0_file_raises(self, tmp_path):
        path = str(tmp_path / "pass.db")
        ShardedBackend(path, shards=3).close()
        os.remove(shard_file_name(path, 0))
        with pytest.raises(StorageError, match="missing shard 00"):
            ShardedBackend(path, shards=3)


class TestGroupCommitAndParallelScans:
    def test_put_batch_is_one_group_commit(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=4)
        records = _records(40)
        backend.put_batch([(record, b"x") for record in records])
        snapshot = backend.storage_stats()
        assert snapshot["group_commits"] == 1
        assert snapshot["batch_records"] == 40
        # Each shard that received a slice committed it as its own batch.
        per_shard = {entry["shard"]: entry for entry in snapshot["per_shard"]}
        for index, shard in enumerate(backend.shard_backends):
            expected = shard.record_count()
            assert per_shard[index]["records"] == expected
            assert per_shard[index]["group_commits"] == (1 if expected else 0)
        backend.close()

    def test_scan_all_merges_in_digest_order(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=4)
        backend.put_batch([(record, None) for record in _records(30)])
        scanned = backend.scan_all()
        digests = [pname.digest for pname, _ in scanned]
        assert digests == sorted(digests)
        assert len(scanned) == 30
        assert backend.storage_stats()["parallel_scans"] == 1
        backend.close()

    def test_scan_all_is_identical_across_shard_counts(self, tmp_path):
        records = _records(25)
        answers = []
        for shards in (1, 3, 4):
            backend = ShardedBackend(
                str(tmp_path / f"pass{shards}.db"), shards=shards
            )
            backend.put_batch([(record, None) for record in records])
            answers.append(
                [(p.digest, r.to_json()) for p, r in backend.scan_all()]
            )
            backend.close()
        assert answers[0] == answers[1] == answers[2]

    def test_get_records_preserves_input_order(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=4)
        records = _records(20)
        backend.put_batch([(record, None) for record in records])
        wanted = [records[i].pname() for i in (17, 3, 11, 0, 8)]
        fetched = backend.get_records(wanted + [_record("ghost").pname()])
        assert [pname for pname, _ in fetched] == wanted
        assert backend.storage_stats()["parallel_probes"] >= 1
        backend.close()

    def test_storage_stats_schema_is_frozen(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=2)
        snapshot = backend.storage_stats()
        assert set(snapshot) == {
            "kind", "shards", "records", "group_commits", "batch_records",
            "commit_ms", "parallel_scans", "parallel_probes", "per_shard", "record_cache",
        }
        assert set(snapshot["commit_ms"]) == {"total", "max"}
        assert snapshot["kind"] == "sharded"
        assert snapshot["shards"] == 2
        assert [entry["shard"] for entry in snapshot["per_shard"]] == [0, 1]
        backend.close()

    def test_record_cache_row_is_the_sum_over_the_shards(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=3)
        records = _records(12)
        backend.put_batch([(record, None) for record in records])
        backend.get_records([record.pname() for record in records] + [_record("ghost").pname()])
        per_shard = [shard.record_cache_stats() for shard in backend.shard_backends]
        total = backend.storage_stats()["record_cache"]
        assert total == {key: sum(row[key] for row in per_shard) for key in total}
        assert (total["entries"], total["hits"], total["misses"]) == (12, 12, 1)
        backend.close()


class TestPerShardRecovery:
    """Crash recovery composes per shard: one WAL per shard, each replayed
    into its own shard; a torn tail on one shard never disturbs the rest."""

    def _shard_wals(self, tmp_path, backend, records):
        """One WAL per shard, logging each record on its owning shard."""
        wals = [
            WriteAheadLog(tmp_path / f"wal.shard{index:02d}")
            for index in range(backend.shard_count())
        ]
        for record in records:
            wals[backend.shard_of(record.pname().digest)].log_put_record(record)
        return wals

    def test_torn_tail_on_one_shard_loses_only_that_record(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=3)
        records = _records(30)
        # The last record's shard gets a torn tail: its final WAL entry is
        # written only partially, as if the crash hit mid-sector.
        victim = records[-1]
        torn_shard = backend.shard_of(victim.pname().digest)
        wals = self._shard_wals(tmp_path, backend, records[:-1])
        wals[torn_shard].inject_torn_write()
        wals[torn_shard].log_put_record(victim)

        for index, wal in enumerate(wals):
            report = wal.replay(backend.shard_backends[index])
            if index == torn_shard:
                assert report.skipped_corrupt == 1
            else:
                assert report.skipped_corrupt == 0
        survivors = {pname.digest for pname, _ in backend.scan_all()}
        lost = {r.pname().digest for r in records} - survivors
        # Exactly the torn entry is missing, and it lived on the torn shard.
        assert lost == {victim.pname().digest}
        backend.close()

    def test_double_replay_with_one_torn_shard_is_idempotent(self, tmp_path):
        backend = ShardedBackend(str(tmp_path / "pass.db"), shards=3)
        records = _records(24)
        victim = next(
            r for r in records if backend.shard_of(r.pname().digest) == 1
        )
        rest = [r for r in records if r is not victim]
        wals = self._shard_wals(tmp_path, backend, rest)
        wals[1].inject_torn_write()
        wals[1].log_put_record(victim)

        for index, wal in enumerate(wals):
            wal.replay(backend.shard_backends[index])
        once = [(p.digest, r.to_json()) for p, r in backend.scan_all()]
        reports = [
            wal.replay(backend.shard_backends[index])
            for index, wal in enumerate(wals)
        ]
        assert [(p.digest, r.to_json()) for p, r in backend.scan_all()] == once
        # Second pass: every intact entry is a duplicate, nothing applies.
        assert all(report.applied == 0 for report in reports)
        assert reports[1].skipped_corrupt == 1
        backend.close()
