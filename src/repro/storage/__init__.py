"""Storage substrates: in-memory, SQLite and sharded backends, and the WAL."""

from repro.storage.backend import StorageBackend, StorageStats
from repro.storage.factory import BACKEND_KINDS, make_backend
from repro.storage.memory import MemoryBackend
from repro.storage.sharded import ShardedBackend, shard_of_digest
from repro.storage.sqlite import SQLiteBackend
from repro.storage.wal import ReplayReport, WalEntry, WriteAheadLog

__all__ = [
    "StorageBackend",
    "StorageStats",
    "BACKEND_KINDS",
    "make_backend",
    "MemoryBackend",
    "SQLiteBackend",
    "ShardedBackend",
    "shard_of_digest",
    "WriteAheadLog",
    "WalEntry",
    "ReplayReport",
]
