"""A write-ahead log used by the crash-recovery experiment.

The paper's reliability criterion (Section IV): "The system must recover
provenance metadata to a state consistent with its data after a system
failure."  To exercise that quantitatively (experiment E11) we need a
storage substrate in which a crash can actually lose or tear writes, and
a recovery procedure that repairs them.

:class:`WriteAheadLog` is a deliberately small, file-based redo log:

* every intended record write (``put_record``) is appended as one JSON
  line with a CRC;
* a crash can be injected after any append, leaving the log ahead of the
  backing store (the normal WAL situation) or tearing the final line
  (simulating a partial sector write);
* :meth:`replay` re-applies complete, checksummed entries to a backend
  and reports what was recovered and what was discarded.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import RecoveryError, StorageError
from repro.storage.backend import StorageBackend

__all__ = ["WalEntry", "ReplayReport", "WriteAheadLog"]

_OPS = {"put_record"}


@dataclass(frozen=True)
class WalEntry:
    """One logical operation recorded in the log."""

    sequence: int
    operation: str
    #: the PName digest the operation targets
    pname: str
    payload: Optional[str] = None  # JSON record text

    def encode(self) -> str:
        """Encode as a single JSON line with a trailing CRC32 field."""
        body = json.dumps(
            {
                "seq": self.sequence,
                "op": self.operation,
                "pname": self.pname,
                "payload": self.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        return f"{body}|{crc:08x}"

    @classmethod
    def decode(cls, line: str) -> "WalEntry":
        """Decode one line, raising ``StorageError`` on corruption."""
        if "|" not in line:
            raise StorageError("WAL line missing checksum")
        body, _, crc_text = line.rpartition("|")
        try:
            expected = int(crc_text, 16)
        except ValueError as exc:
            raise StorageError("WAL checksum is not hexadecimal") from exc
        actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        if actual != expected:
            raise StorageError("WAL checksum mismatch")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise StorageError("WAL body is not valid JSON") from exc
        if payload.get("op") not in _OPS:
            raise StorageError(f"unknown WAL operation {payload.get('op')!r}")
        return cls(
            sequence=int(payload["seq"]),
            operation=payload["op"],
            pname=payload["pname"],
            payload=payload.get("payload"),
        )


@dataclass
class ReplayReport:
    """What :meth:`WriteAheadLog.replay` did."""

    applied: int = 0
    skipped_corrupt: int = 0
    skipped_duplicate: int = 0


class WriteAheadLog:
    """Append-only redo log for a storage backend.

    Parameters
    ----------
    path:
        File the log lives in.  Created on first append.
    """

    def __init__(self, path: os.PathLike) -> None:
        self._path = Path(path)
        self._sequence = self._last_sequence_on_disk()
        self._torn_next_write = False

    @property
    def path(self) -> Path:
        """Location of the log file."""
        return self._path

    @property
    def sequence(self) -> int:
        """Sequence number of the most recently appended entry (0 if none)."""
        return self._sequence

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def log_put_record(self, record: ProvenanceRecord) -> WalEntry:
        """Log an intent to store a provenance record."""
        return self._append("put_record", record.pname().digest, record.to_json())

    def inject_torn_write(self) -> None:
        """Make the *next* appended entry be written only partially.

        This simulates a crash in the middle of a sector write; the torn
        line must be detected and discarded on replay.
        """
        self._torn_next_write = True

    def _append(self, operation: str, pname_digest: str, payload: Optional[str]) -> WalEntry:
        self._sequence += 1
        entry = WalEntry(self._sequence, operation, pname_digest, payload)
        line = entry.encode()
        if self._torn_next_write:
            line = line[: max(1, len(line) // 2)]
            self._torn_next_write = False
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return entry

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def entries(self) -> List[WalEntry]:
        """Decode every intact entry currently in the log (corrupt lines skipped)."""
        result = []
        for line in self._read_lines():
            try:
                result.append(WalEntry.decode(line))
            except StorageError:
                continue
        return result

    def replay(self, backend: StorageBackend) -> ReplayReport:
        """Re-apply intact log entries to ``backend``.

        Entries whose record is already stored are counted as
        duplicates; corrupt or torn lines are skipped.  The result is a
        backend state consistent with every *acknowledged* write, which
        is exactly the recovery guarantee the paper's reliability
        criterion asks for.
        """
        report = ReplayReport()
        for line in self._read_lines():
            try:
                entry = WalEntry.decode(line)
            except StorageError:
                report.skipped_corrupt += 1
                continue
            if self._apply(entry, backend):
                report.applied += 1
            else:
                report.skipped_duplicate += 1
        backend.flush()
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply(self, entry: WalEntry, backend: StorageBackend) -> bool:
        if entry.payload is None:
            raise RecoveryError("put_record entry missing its record body")
        record = ProvenanceRecord.from_json(entry.payload)
        if backend.has_record(PName(entry.pname)):
            return False
        backend.put_record(record)
        return True

    def _read_lines(self) -> List[str]:
        if not self._path.exists():
            return []
        with open(self._path, "r", encoding="utf-8") as handle:
            return [line.rstrip("\n") for line in handle if line.strip()]

    def _last_sequence_on_disk(self) -> int:
        last = 0
        for line in self._read_lines():
            try:
                entry = WalEntry.decode(line)
            except StorageError:
                continue
            last = max(last, entry.sequence)
        return last
