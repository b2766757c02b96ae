"""Digest-partitioned storage: N independent shards behind one backend.

The single-file SQLite backend serializes every write and scan on one
connection; at the paper's city-scale ingest rates that one lock is the
bottleneck long before the query layers are.  :class:`ShardedBackend`
splits the keyspace by PName digest across N per-shard backends -- each
SQLite shard with its own file, WAL and connection -- so batched writes
commit per shard on a thread pool (group commit: one transaction and one
fsync per shard per batch) and full scans / bulk probes fan out across
shards concurrently.  SQLite releases the GIL inside its C calls, so the
per-shard commits and fetches genuinely overlap on a multi-core box.

Partitioning must be *stable*: shard assignment uses the leading 32 bits
of the PName's SHA-256 hex digest (:func:`shard_of_digest`), never
Python's per-process-salted ``hash()``, so the same record lands on the
same shard in every interpreter run.  The shard count is written into a
manifest blob on shard 0 at creation time; reopening with a different
count raises :class:`~repro.errors.StorageError` instead of silently
scattering new records under a different partitioning.

Non-digest state is homed deterministically: store-wide blobs (the
manifest) live on shard 0 through the ordinary ``put_index_blob`` API.
A sharded backend keeps no record order across its shards, so a store
over it writes no index checkpoint: every open replays the records, and
the closure labelling is built on the first lineage read, as on
``memory://``.

See ``docs/STORAGE.md`` for the sharding scheme, group-commit semantics
and guidance on choosing ``shards=N``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import StorageError
from repro.storage.backend import StorageBackend, StorageStats, validate_batch_payloads
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite import SQLiteBackend

__all__ = ["ShardedBackend", "shard_of_digest", "shard_file_name"]

#: reserved blob name carrying {"format", "shards"} on shard 0
MANIFEST_BLOB = "__shard_manifest__"
#: bump when the manifest layout changes
_MANIFEST_FORMAT = 1
#: sanity bound: more shards than this is a configuration mistake
MAX_SHARDS = 1024


def shard_of_digest(digest: str, shards: int) -> int:
    """The shard owning ``digest`` (a 64-char SHA-256 hex PName digest).

    Salt-independent by construction -- the digest's leading 32 bits mod
    the shard count -- so assignment is identical across processes,
    interpreter runs and hosts.
    """
    return int(digest[:8], 16) % shards


def shard_file_name(path: str, shard: int) -> str:
    """The per-shard database file for base ``path`` (``<path>.shardNN``)."""
    return f"{path}.shard{shard:02d}"


class _AggregateStats(StorageStats):
    """``backend.stats`` for the sharded store: the sum over all shards.

    Operation counters live where the operations run (on the per-shard
    backends); this view folds them together so the ``stats()["backend"]``
    block keeps its schema whatever the shard count.
    """

    def __init__(self, shards: Sequence[StorageBackend]) -> None:
        super().__init__()
        self._backends = shards

    def snapshot(self) -> dict:
        totals = super().snapshot()
        for backend in self._backends:
            for key, value in backend.stats.snapshot().items():
                totals[key] += value
        return totals


class ShardedBackend(StorageBackend):
    """N digest-partitioned backends behind the one ``StorageBackend`` ABC.

    Parameters
    ----------
    path:
        Base database path; shard ``i`` lives at ``<path>.shardNN``.
        ``None`` / ``":memory:"`` builds private in-memory shards (SQL
        behaviour without disk -- what ``sqlite://?shards=N`` gives you).
    shards:
        Partition count, fixed at creation time and persisted in the
        shard-0 manifest; reopening with a different count raises
        :class:`StorageError`.
    kind:
        Per-shard substrate: ``"sqlite"`` (default) or ``"memory"``.
    max_workers:
        Thread-pool width for group commits and parallel scans
        (default: ``min(shards, cpu_count)``, at least 2).
    """

    storage_kind = "sharded"

    def __init__(
        self,
        path: Optional[str] = None,
        shards: int = 4,
        kind: str = "sqlite",
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__()
        if not 1 <= shards <= MAX_SHARDS:
            raise StorageError(f"shard count must be in 1..{MAX_SHARDS}, got {shards}")
        if kind not in ("sqlite", "memory"):
            raise StorageError(f"unknown shard substrate {kind!r} (sqlite or memory)")
        self._path = None if path in (None, ":memory:") else str(path)
        if self._path is not None and kind == "memory":
            raise StorageError("memory shards take no path")
        self._shard_total = shards
        self._closed = False
        self._locks = [threading.Lock() for _ in range(shards)]
        if max_workers is None:
            max_workers = min(shards, max(2, os.cpu_count() or 1))
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, max_workers), thread_name_prefix="repro-shard"
        )
        self._shards: List[StorageBackend] = self._open_shards(kind)
        self._adopt_or_write_manifest()
        # Infrastructure writes (the manifest) must not show up in the
        # user-facing operation counters.
        for shard in self._shards:
            shard.stats = StorageStats()
        self.stats = _AggregateStats(self._shards)

    # ------------------------------------------------------------------
    # Construction / manifest
    # ------------------------------------------------------------------
    def _open_shards(self, kind: str) -> List[StorageBackend]:
        if self._path is None:
            if kind == "memory":
                return [MemoryBackend() for _ in range(self._shard_total)]
            return [SQLiteBackend(":memory:") for _ in range(self._shard_total)]
        base = Path(self._path)
        existing = sorted(p.name for p in base.parent.glob(base.name + ".shard*"))
        if existing:
            # A sharded base already lives here: shard 0 (and its
            # manifest) must be present before anything is created.
            if Path(shard_file_name(self._path, 0)).name not in existing:
                self._pool.shutdown(wait=False)
                raise StorageError(
                    f"sharded database at {self._path!r} is missing shard 00 "
                    f"(found {existing}); refusing to open"
                )
        return [
            SQLiteBackend(shard_file_name(self._path, index))
            for index in range(self._shard_total)
        ]

    def _adopt_or_write_manifest(self) -> None:
        shard0 = self._shards[0]
        blob = shard0.get_index_blob(MANIFEST_BLOB)
        if blob is None:
            if self._path is not None and shard0.record_count() > 0:
                self._teardown_shards()
                raise StorageError(
                    f"shard 00 of {self._path!r} holds records but no shard "
                    "manifest; the database is corrupt or was not created by "
                    "ShardedBackend"
                )
            manifest = {"format": _MANIFEST_FORMAT, "shards": self._shard_total}
            shard0.put_index_blob(
                MANIFEST_BLOB, json.dumps(manifest, sort_keys=True).encode("utf-8")
            )
            return
        try:
            manifest = json.loads(blob.decode("utf-8"))
            recorded = int(manifest["shards"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self._teardown_shards()
            raise StorageError(
                f"unreadable shard manifest on {self._path!r}; refusing to guess "
                "a partitioning"
            ) from None
        if recorded != self._shard_total:
            self._teardown_shards()
            raise StorageError(
                f"database at {self._path!r} was created with shards={recorded} "
                f"but opened with shards={self._shard_total}; shard count is "
                "fixed at creation time (re-open with the original count)"
            )

    def _teardown_shards(self) -> None:
        for shard in self._shards:
            try:
                shard.close()
            except StorageError:
                pass
        self._pool.shutdown(wait=False)
        self._closed = True

    # ------------------------------------------------------------------
    # Partitioning / fan-out plumbing
    # ------------------------------------------------------------------
    def shard_of(self, digest: str) -> int:
        """Which shard owns ``digest`` under this backend's partitioning."""
        return shard_of_digest(digest, self._shard_total)

    def shard_count(self) -> int:
        return self._shard_total

    @property
    def shard_backends(self) -> Tuple[StorageBackend, ...]:
        """The per-shard backends, in shard order (tests and tooling)."""
        return tuple(self._shards)

    def _map_shards(self, fn, shard_ids: Sequence[int]) -> Dict[int, object]:
        """Run ``fn(shard_id)`` for each id, on the pool when it fans out."""
        shard_ids = list(shard_ids)
        if len(shard_ids) <= 1:
            return {index: fn(index) for index in shard_ids}
        futures = {index: self._pool.submit(fn, index) for index in shard_ids}
        return {index: future.result() for index, future in futures.items()}

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("sharded backend has been closed")

    # ------------------------------------------------------------------
    # Provenance records
    # ------------------------------------------------------------------
    def put_record(self, record: ProvenanceRecord) -> None:
        self._check_open()
        index = self.shard_of(record.pname().digest)
        with self._locks[index]:
            self._shards[index].put_record(record)

    def get_record(self, pname: PName) -> Optional[ProvenanceRecord]:
        self._check_open()
        index = self.shard_of(pname.digest)
        with self._locks[index]:
            return self._shards[index].get_record(pname)

    def has_record(self, pname: PName) -> bool:
        self._check_open()
        index = self.shard_of(pname.digest)
        with self._locks[index]:
            return self._shards[index].has_record(pname)

    def get_records(self, pnames):
        """Bulk fetch fanned across shards; input order is preserved."""
        self._check_open()
        pnames = list(pnames)
        split: Dict[int, List[PName]] = {}
        for pname in pnames:
            split.setdefault(self.shard_of(pname.digest), []).append(pname)
        if len(split) > 1:
            self._parallel_probes += 1

        def fetch(index: int):
            with self._locks[index]:
                return self._shards[index].get_records(split[index])

        chunks = self._map_shards(fetch, sorted(split))
        found = {
            pname.digest: (pname, record)
            for chunk in chunks.values()
            for pname, record in chunk
        }
        return [found[pname.digest] for pname in pnames if pname.digest in found]

    def iter_records(self) -> Iterator[Tuple[PName, ProvenanceRecord]]:
        self._check_open()
        for index in range(self._shard_total):
            with self._locks[index]:
                chunk = list(self._shards[index].iter_records())
            yield from chunk

    def scan_all(self) -> List[Tuple[PName, ProvenanceRecord]]:
        """Parallel full scan: every shard drained concurrently, merged in
        digest order so the answer is deterministic across shard counts."""
        self._check_open()
        self._parallel_scans += 1

        def scan(index: int):
            with self._locks[index]:
                return list(self._shards[index].iter_records())

        chunks = self._map_shards(scan, range(self._shard_total))
        merged = [pair for index in sorted(chunks) for pair in chunks[index]]
        merged.sort(key=lambda pair: pair[0].digest)
        return merged

    def record_count(self) -> int:
        self._check_open()
        return sum(shard.record_count() for shard in self._shards)

    def put_batch(self, entries) -> None:
        """Group commit: the batch splits by shard and each shard's slice
        commits as one transaction, concurrently across shards.

        The whole batch is validated up front, so a bad entry rejects it
        with no partial state on any shard.  Atomicity is per shard (one
        transaction each); a crash can lose whole shard slices, never a
        prefix of one -- the same guarantee the WAL replay path restores.
        """
        self._check_open()
        entries = list(entries)
        validate_batch_payloads(entries)
        split: Dict[int, list] = {}
        for record, payload in entries:
            index = self.shard_of(record.pname().digest)
            split.setdefault(index, []).append((record, payload))
        started = time.perf_counter()

        def commit(index: int) -> None:
            with self._locks[index]:
                self._shards[index].put_batch(split[index])

        self._map_shards(commit, sorted(split))
        self._note_group_commit(len(entries), (time.perf_counter() - started) * 1000.0)

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    def put_payload(self, pname: PName, payload: bytes) -> None:
        self._check_open()
        index = self.shard_of(pname.digest)
        with self._locks[index]:
            self._shards[index].put_payload(pname, payload)

    def get_payload(self, pname: PName) -> Optional[bytes]:
        self._check_open()
        index = self.shard_of(pname.digest)
        with self._locks[index]:
            return self._shards[index].get_payload(pname)

    def delete_payload(self, pname: PName) -> bool:
        self._check_open()
        index = self.shard_of(pname.digest)
        with self._locks[index]:
            return self._shards[index].delete_payload(pname)

    # ------------------------------------------------------------------
    # Auxiliary index snapshots
    # ------------------------------------------------------------------
    def put_index_blob(self, name: str, payload: bytes) -> bool:
        """Store-wide blobs home on shard 0."""
        self._check_open()
        with self._locks[0]:
            return self._shards[0].put_index_blob(name, payload)

    def get_index_blob(self, name: str) -> Optional[bytes]:
        self._check_open()
        with self._locks[0]:
            return self._shards[0].get_index_blob(name)

    def delete_index_blob(self, name: str) -> bool:
        self._check_open()
        with self._locks[0]:
            return self._shards[0].delete_index_blob(name)

    # ------------------------------------------------------------------
    # Removal markers
    # ------------------------------------------------------------------
    def mark_removed(self, pname: PName) -> None:
        self._check_open()
        index = self.shard_of(pname.digest)
        with self._locks[index]:
            self._shards[index].mark_removed(pname)

    def is_removed(self, pname: PName) -> bool:
        self._check_open()
        index = self.shard_of(pname.digest)
        with self._locks[index]:
            return self._shards[index].is_removed(pname)

    def removed_pnames(self) -> List[PName]:
        self._check_open()
        merged: List[PName] = []
        for index in range(self._shard_total):
            with self._locks[index]:
                merged.extend(self._shards[index].removed_pnames())
        merged.sort(key=lambda pname: pname.digest)
        return merged

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _per_shard_storage(self) -> List[dict]:
        return [
            {
                "shard": index,
                "records": shard.record_count(),
                "group_commits": shard._group_commits,
            }
            for index, shard in enumerate(self._shards)
        ]

    def record_cache_stats(self) -> dict:
        totals = super().record_cache_stats()
        for shard in self._shards:
            for key, value in shard.record_cache_stats().items():
                totals[key] += value
        return totals

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._closed:
            return
        for index in range(self._shard_total):
            with self._locks[index]:
                self._shards[index].flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                shard.close()
            except StorageError:
                pass
        self._pool.shutdown(wait=True)
