"""SQLite-backed storage backend.

This is the durable prototype substrate: provenance records, tuple-set
payloads, removal markers and index snapshots in four tables, with
SQLite's own WAL journalling enabled.  A fault-injection hook lets
experiment E11 crash the backend after a configurable number of writes,
then re-open the database and (optionally) replay the library-level
:class:`~repro.storage.wal.WriteAheadLog` to verify the recovery story.

Schema
------
``records(pname TEXT PRIMARY KEY, body TEXT)``
    The provenance record as canonical JSON.  Its ``ancestors`` list is
    the only stored copy of the lineage edges; the store rebuilds its
    graph from it on open.
``payloads(pname TEXT PRIMARY KEY, body BLOB)``
    The serialised readings of the tuple set.
``removed(pname TEXT PRIMARY KEY)``
    PNames whose data was removed (provenance retained).
``index_blobs(name TEXT PRIMARY KEY, body BLOB)``
    Auxiliary index snapshots (the :mod:`repro.lineage` reachability
    labelling, the store's index checkpoint), so reopening the store
    does not re-derive them; see docs/STORAGE.md, "Open path".

Read path
---------
Decoded records are kept in a bounded map (digest -> the
:class:`~repro.core.provenance.ProvenanceRecord` object), filled only
after a commit or a fetch and dropped on close; see docs/STORAGE.md,
"Read path", for the coherence rules.

A file written before the edge copy was dropped still holds a fifth
table of ``(child, parent)`` rows; it is neither read, written nor
dropped here (see docs/STORAGE.md, "Schema and write path").
"""

from __future__ import annotations

import sqlite3
import time
from itertools import chain
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import CrashInjectedError, StorageError
from repro.storage.backend import StorageBackend, validate_batch_payloads

__all__ = ["SQLiteBackend"]

#: Decoded records kept per backend (per shard under ``?shards=N``);
#: at the benchmark's record shape an entry is about 1.8 KB, so a full
#: map is about 30 MB.  The oldest-inserted entry leaves first.
RECORD_CACHE_CAPACITY = 16_384
_MAX_ROWID = 2**63 - 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    pname TEXT PRIMARY KEY,
    body  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS payloads (
    pname TEXT PRIMARY KEY,
    body  BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS removed (
    pname TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS index_blobs (
    name TEXT PRIMARY KEY,
    body BLOB NOT NULL
);
"""


class SQLiteBackend(StorageBackend):
    """Durable backend over a single SQLite database file.

    Parameters
    ----------
    path:
        Database file.  Use ``":memory:"`` for a private in-memory
        database (handy in tests that want SQL behaviour without disk).
    crash_after_writes:
        When set, the backend raises
        :class:`~repro.errors.CrashInjectedError` once that many write
        operations have been attempted, *before* committing the failing
        write.  Used by the recovery experiment.
    """

    storage_kind = "sqlite"

    def __init__(
        self,
        path: str | Path = ":memory:",
        crash_after_writes: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._path = str(path)
        # The connection is usable from any thread; the backend itself is
        # not thread-safe, so concurrent callers (the sharded backend's
        # commit pool) serialize access per instance.
        self._connection = sqlite3.connect(self._path, check_same_thread=False)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()
        self._writes_seen = 0
        self._crash_after_writes = crash_after_writes
        self._closed = False
        # digest -> decoded record, shared with callers as MemoryBackend's are
        self._decoded: Dict[str, ProvenanceRecord] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0

    def _remember(self, digest: str, record: ProvenanceRecord) -> None:
        """Cache ``record``: only ever called with what the file holds."""
        decoded = self._decoded
        if digest not in decoded and len(decoded) >= RECORD_CACHE_CAPACITY:
            del decoded[next(iter(decoded))]
            self._cache_evictions += 1
        decoded[digest] = record

    def record_cache_stats(self) -> dict:
        return {
            "capacity": RECORD_CACHE_CAPACITY,
            "entries": len(self._decoded),
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
        }

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _maybe_crash(self) -> None:
        if self._crash_after_writes is None:
            return
        self._writes_seen += 1
        if self._writes_seen > self._crash_after_writes:
            # Simulate a hard crash: the connection dies without commit.
            self._connection.rollback()
            self._connection.close()
            self._closed = True
            self._decoded.clear()
            raise CrashInjectedError(
                f"injected crash after {self._crash_after_writes} writes"
            )

    # ------------------------------------------------------------------
    # Provenance records
    # ------------------------------------------------------------------
    def put_record(self, record: ProvenanceRecord) -> None:
        self._check_open()
        self._maybe_crash()
        digest = record.pname().digest
        # Dropped first, re-entered after the commit: annotate mutates the
        # shared object before writing it, so if this raises, in-process
        # reads must not show an annotation the file never got.
        self._decoded.pop(digest, None)
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO records (pname, body) VALUES (?, ?)",
                (digest, record.to_json()),
            )
        self._remember(digest, record)
        self.stats.puts += 1

    def put_batch(self, entries) -> None:
        """Commit a whole batch of records (and payloads) in one transaction.

        The crash-injection counter is charged up front for every write
        the batch would perform: the batch is atomic, so an injected
        crash loses the whole batch rather than a prefix of it.
        """
        self._check_open()
        entries = list(entries)
        validate_batch_payloads(entries)
        for record, payload in entries:
            self._maybe_crash()
            if payload is not None:
                self._maybe_crash()
        started = time.perf_counter()
        rows = [(record.pname().digest, record, payload) for record, payload in entries]
        payload_rows = [(digest, bytes(payload)) for digest, _, payload in rows if payload is not None]
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO records (pname, body) VALUES (?, ?)",
                [(digest, record.to_json()) for digest, record, _ in rows],
            )
            if payload_rows:
                self._connection.executemany(
                    "INSERT OR REPLACE INTO payloads (pname, body) VALUES (?, ?)", payload_rows
                )
        self._note_group_commit(len(entries), (time.perf_counter() - started) * 1000.0)
        for digest, record, _ in rows:
            self._remember(digest, record)
        self.stats.puts += len(entries) + len(payload_rows)
        self.stats.payload_bytes += sum(len(body) for _, body in payload_rows)

    def get_record(self, pname: PName) -> Optional[ProvenanceRecord]:
        self._check_open()
        self.stats.gets += 1
        record = self._decoded.get(pname.digest)
        if record is not None:
            self._cache_hits += 1
            return record
        self._cache_misses += 1
        row = self._connection.execute(
            "SELECT body FROM records WHERE pname = ?", (pname.digest,)
        ).fetchone()
        if row is None:
            return None
        record = ProvenanceRecord.from_json(row[0])
        self._remember(pname.digest, record)
        return record

    def get_records(self, pnames):
        """Bulk fetch: cached records first, then chunked ``IN`` selects
        (one statement per chunk, not per record) for the misses."""
        self._check_open()
        pnames = list(pnames)
        self.stats.gets += len(pnames)
        found = {}
        misses = []
        for pname in pnames:
            record = self._decoded.get(pname.digest)
            if record is None:
                misses.append(pname.digest)
            else:
                found[pname.digest] = record
        self._cache_hits += len(pnames) - len(misses)
        self._cache_misses += len(misses)
        chunk_size = 500  # stay far below SQLite's bound-parameter limit
        for start in range(0, len(misses), chunk_size):
            chunk = misses[start : start + chunk_size]
            placeholders = ",".join("?" for _ in chunk)
            rows = self._connection.execute(
                f"SELECT pname, body FROM records WHERE pname IN ({placeholders})", chunk
            ).fetchall()
            for digest, body in rows:
                record = found[digest] = ProvenanceRecord.from_json(body)
                self._remember(digest, record)
        return [
            (pname, found[pname.digest]) for pname in pnames if pname.digest in found
        ]

    def has_record(self, pname: PName) -> bool:
        self._check_open()
        row = self._connection.execute(
            "SELECT 1 FROM records WHERE pname = ?", (pname.digest,)
        ).fetchone()
        return row is not None

    def iter_records(self, after: int = 0) -> Iterator[Tuple[PName, ProvenanceRecord]]:
        """Every pair in rowid order (those past rowid ``after`` only).

        ``INSERT OR REPLACE`` gives a rewritten record a fresh rowid, so
        that is commit order with an annotated record moved to the end:
        the order the store replays in, and the one :meth:`record_order`
        numbers records by.
        """
        self._check_open()
        # A scan consults the map but never fills it: the reopen replay and
        # full scans would otherwise pin the whole store (docs/STORAGE.md).
        cursor = self._connection.execute(
            "SELECT pname, body FROM records WHERE rowid > ? ORDER BY rowid", (after,)
        )
        for digest, body in cursor:
            yield PName(digest), self._decoded.get(digest) or ProvenanceRecord.from_json(body)

    def record_order(self, upto: Optional[int] = None) -> Tuple[List[str], int]:
        self._check_open()
        upto = _MAX_ROWID if upto is None else upto
        # Names alone, flattened in C; the marker from one more statement.
        rows = self._connection.execute("SELECT pname FROM records WHERE rowid <= ? ORDER BY rowid", (upto,))
        digests = list(chain.from_iterable(rows))
        (marker,) = self._connection.execute("SELECT MAX(rowid) FROM records WHERE rowid <= ?", (upto,)).fetchone()
        return digests, marker or 0

    def record_count(self) -> int:
        self._check_open()
        row = self._connection.execute("SELECT COUNT(*) FROM records").fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    def put_payload(self, pname: PName, payload: bytes) -> None:
        self._check_open()
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError("payload must be bytes")
        self._maybe_crash()
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO payloads (pname, body) VALUES (?, ?)",
                (pname.digest, bytes(payload)),
            )
        self.stats.puts += 1
        self.stats.payload_bytes += len(payload)

    def get_payload(self, pname: PName) -> Optional[bytes]:
        self._check_open()
        self.stats.gets += 1
        row = self._connection.execute(
            "SELECT body FROM payloads WHERE pname = ?", (pname.digest,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def delete_payload(self, pname: PName) -> bool:
        self._check_open()
        self._maybe_crash()
        with self._connection:
            cursor = self._connection.execute(
                "DELETE FROM payloads WHERE pname = ?", (pname.digest,)
            )
        deleted = cursor.rowcount > 0
        if deleted:
            self.stats.deletes += 1
        return deleted

    # ------------------------------------------------------------------
    # Auxiliary index snapshots
    # ------------------------------------------------------------------
    def put_index_blob(self, name: str, payload: bytes) -> bool:
        self._check_open()
        if not isinstance(payload, (bytes, bytearray)):
            raise StorageError("index blob payload must be bytes")
        self._maybe_crash()
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO index_blobs (name, body) VALUES (?, ?)",
                (name, bytes(payload)),
            )
        self.stats.puts += 1
        return True

    def get_index_blob(self, name: str) -> Optional[bytes]:
        self._check_open()
        self.stats.gets += 1
        row = self._connection.execute(
            "SELECT body FROM index_blobs WHERE name = ?", (name,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def delete_index_blob(self, name: str) -> bool:
        self._check_open()
        with self._connection:
            cursor = self._connection.execute(
                "DELETE FROM index_blobs WHERE name = ?", (name,)
            )
        deleted = cursor.rowcount > 0
        if deleted:
            self.stats.deletes += 1
        return deleted

    # ------------------------------------------------------------------
    # Removal markers
    # ------------------------------------------------------------------
    def mark_removed(self, pname: PName) -> None:
        self._check_open()
        self._maybe_crash()
        with self._connection:
            self._connection.execute(
                "INSERT OR IGNORE INTO removed (pname) VALUES (?)", (pname.digest,)
            )

    def is_removed(self, pname: PName) -> bool:
        self._check_open()
        row = self._connection.execute(
            "SELECT 1 FROM removed WHERE pname = ?", (pname.digest,)
        ).fetchone()
        return row is not None

    def removed_pnames(self) -> List[PName]:
        self._check_open()
        cursor = self._connection.execute("SELECT pname FROM removed ORDER BY pname")
        return [PName(row[0]) for row in cursor]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if not self._closed:
            self._connection.commit()

    def close(self) -> None:
        if not self._closed:
            self._connection.commit()
            self._connection.close()
            self._closed = True
            self._decoded.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("SQLite backend has been closed (or crashed)")
