"""Abstract storage backend for provenance records and tuple-set payloads.

The PASS store separates *what* it stores (provenance records, reading
payloads, removal markers) from *where* bytes live.  Two backends ship
with the library:

* :class:`repro.storage.memory.MemoryBackend` -- a dict-backed store used
  by most tests and by the distributed architecture models (each
  simulated site gets its own).
* :class:`repro.storage.sqlite.SQLiteBackend` -- the durable prototype
  the calibration notes anticipate, with WAL journalling and crash
  recovery used by experiment E11.

Backends store provenance records keyed by PName digest, raw reading
payloads keyed the same way, and a removed-set.  They intentionally know
nothing about indexing or queries; those live above, in
:mod:`repro.index` and :mod:`repro.core.pass_store`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Tuple

from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import StorageError

__all__ = ["StorageBackend", "StorageStats", "validate_batch_payloads"]


def validate_batch_payloads(entries) -> None:
    """Reject a batch containing a non-bytes payload *before* any write.

    Shared by every ``put_batch`` implementation so an invalid entry
    fails the whole batch identically on all backends (no partial state).
    """
    for record, payload in entries:
        if payload is not None and not isinstance(payload, (bytes, bytearray)):
            raise StorageError(
                f"payload for {record.pname().short} must be bytes, "
                f"got {type(payload).__name__}"
            )


class StorageStats:
    """Simple operation counters every backend maintains.

    The evaluation harness reads these to charge storage cost to the
    architecture models (resource-consumption criterion).
    """

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.payload_bytes = 0

    def snapshot(self) -> dict:
        """Return the counters as a plain dict (for reports)."""
        return {
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "payload_bytes": self.payload_bytes,
        }


class StorageBackend(ABC):
    """Interface every storage backend implements."""

    #: machine-readable backend family name in ``storage_stats()["kind"]``
    storage_kind = "abstract"

    def __init__(self) -> None:
        self.stats = StorageStats()
        # Storage-engine counters behind the frozen stats()["storage"]
        # block: group commits (batched transactions), records committed
        # through them, and commit wall time.  Parallelism counters stay
        # zero on single-substrate backends; the sharded backend bumps
        # them.
        self._group_commits = 0
        self._batch_records = 0
        self._commit_ms_total = 0.0
        self._commit_ms_max = 0.0
        self._parallel_scans = 0
        self._parallel_probes = 0

    def _note_group_commit(self, records: int, elapsed_ms: float) -> None:
        """Account one batched commit (``put_batch``) in the storage block."""
        self._group_commits += 1
        self._batch_records += records
        self._commit_ms_total += elapsed_ms
        if elapsed_ms > self._commit_ms_max:
            self._commit_ms_max = elapsed_ms

    # -- provenance records ---------------------------------------------------
    @abstractmethod
    def put_record(self, record: ProvenanceRecord) -> None:
        """Persist a provenance record, keyed by its PName."""

    @abstractmethod
    def get_record(self, pname: PName) -> Optional[ProvenanceRecord]:
        """Fetch a provenance record, or ``None`` when absent."""

    @abstractmethod
    def has_record(self, pname: PName) -> bool:
        """True when a record with this PName is stored."""

    def get_records(self, pnames: "List[PName]") -> "List[Tuple[PName, ProvenanceRecord]]":
        """Fetch several records, preserving input order; missing PNames are skipped.

        The planner's executor feeds index-served candidate sets through
        here.  The default loops :meth:`get_record`; backends with a
        cheaper bulk read (one statement instead of one per record)
        override it.
        """
        result: List[Tuple[PName, ProvenanceRecord]] = []
        for pname in pnames:
            record = self.get_record(pname)
            if record is not None:
                result.append((pname, record))
        return result

    @abstractmethod
    def iter_records(self) -> Iterator[Tuple[PName, ProvenanceRecord]]:
        """Iterate over every stored ``(PName, record)`` pair."""

    def record_order(self, upto: Optional[int] = None) -> "Optional[Tuple[List[str], int]]":
        """``(digests in stored order, the last one's marker)``, or ``None``.

        A backend whose records keep a stable order with a growing
        integer marker (SQLite's rowid) answers; the store then names
        records by position in its index checkpoint and, on open, passes
        the marker to ``iter_records(after)`` to replay only what the
        checkpoint does not cover.  ``upto`` stops at that marker.
        ``None`` (the default) means no such order: no checkpoint is
        written and every open replays.
        """
        return None

    def scan_all(self) -> "List[Tuple[PName, ProvenanceRecord]]":
        """Materialize every stored pair (the executor's full-scan path).

        The default just drains :meth:`iter_records`; partitioned
        backends override it to fan the scan across shards concurrently.
        Callers must not rely on any particular ordering -- single-file
        backends yield insertion order, the sharded backend digest order.
        """
        return list(self.iter_records())

    @abstractmethod
    def record_count(self) -> int:
        """Number of stored provenance records."""

    def shard_count(self) -> int:
        """How many independent partitions back this store (1 = unsharded)."""
        return 1

    def put_batch(self, entries: "List[Tuple[ProvenanceRecord, Optional[bytes]]]") -> None:
        """Persist several ``(record, payload)`` pairs as one batch.

        ``payload`` may be ``None`` for metadata-only records.  The
        default loops; durable backends override it to commit the whole
        batch in a single transaction, which is what makes the façade's
        ``publish_many`` cheaper per tuple set than looped publishes.

        The batch is atomic with respect to *invalid input*: every
        payload is type-checked before anything is written, so a bad
        entry rejects the whole batch and leaves no partial state --
        identical visible behaviour to the transactional backends.
        """
        entries = list(entries)
        validate_batch_payloads(entries)
        started = time.perf_counter()
        for record, payload in entries:
            self.put_record(record)
            if payload is not None:
                self.put_payload(record.pname(), payload)
        self._note_group_commit(len(entries), (time.perf_counter() - started) * 1000.0)

    # -- payloads (the readings themselves) ----------------------------------
    @abstractmethod
    def put_payload(self, pname: PName, payload: bytes) -> None:
        """Persist the serialised readings of a tuple set."""

    @abstractmethod
    def get_payload(self, pname: PName) -> Optional[bytes]:
        """Fetch a tuple set's serialised readings, or ``None``."""

    @abstractmethod
    def delete_payload(self, pname: PName) -> bool:
        """Remove a payload (the *data*, never the provenance).

        Returns True when something was deleted.  Used to exercise PASS
        property P4: deleting data must not delete provenance.
        """

    # -- auxiliary index snapshots -------------------------------------------
    def put_index_blob(self, name: str, payload: bytes) -> bool:
        """Persist an auxiliary index snapshot under ``name``.

        Used by the :mod:`repro.lineage` reachability index so reopening
        a durable store does not re-derive its labelling.  Returns True
        when the blob was actually stored; the default (no blob storage)
        returns False so callers know persistence did not happen.
        """
        return False

    def get_index_blob(self, name: str) -> Optional[bytes]:
        """Fetch a previously stored index snapshot, or ``None``."""
        return None

    def delete_index_blob(self, name: str) -> bool:
        """Drop a stored index snapshot; True when something was deleted."""
        return False

    # -- removal markers -------------------------------------------------------
    @abstractmethod
    def mark_removed(self, pname: PName) -> None:
        """Remember that the data named by ``pname`` was removed."""

    @abstractmethod
    def is_removed(self, pname: PName) -> bool:
        """True when the data named by ``pname`` was removed."""

    @abstractmethod
    def removed_pnames(self) -> List[PName]:
        """All PNames whose data was removed."""

    # -- the stats()["storage"] block -----------------------------------------
    def storage_stats(self) -> dict:
        """The frozen ``stats()["storage"]`` block (see docs/STORAGE.md).

        Same keys on every backend -- unsharded stores report
        ``shards: 1`` and zero parallelism -- so dashboards can key on
        the block unconditionally (golden-key suite enforced).
        """
        return {
            "kind": self.storage_kind,
            "shards": self.shard_count(),
            "records": self.record_count(),
            "group_commits": self._group_commits,
            "batch_records": self._batch_records,
            "commit_ms": {
                "total": round(self._commit_ms_total, 3),
                "max": round(self._commit_ms_max, 3),
            },
            "parallel_scans": self._parallel_scans,
            "parallel_probes": self._parallel_probes,
            "per_shard": self._per_shard_storage(),
            "record_cache": self.record_cache_stats(),
        }

    def record_cache_stats(self) -> dict:
        """The decoded-record cache counters; all zero where records
        are held decoded anyway (``memory://``)."""
        return {"capacity": 0, "entries": 0, "hits": 0, "misses": 0, "evictions": 0}

    def _per_shard_storage(self) -> "List[dict]":
        """One entry per shard; the single-substrate default is shard 0."""
        return [
            {
                "shard": 0,
                "records": self.record_count(),
                "group_commits": self._group_commits,
            }
        ]

    # -- lifecycle ---------------------------------------------------------------
    def flush(self) -> None:
        """Force durability (no-op for volatile backends)."""

    def close(self) -> None:
        """Release resources; further use raises ``StorageError``."""
