"""``LocalClient.close()`` releases the backend whatever its checkpoints do."""

from __future__ import annotations

import sqlite3

import pytest

import repro
from repro.core import ProvenanceRecord, TupleSet
from repro.errors import StorageError


@pytest.mark.parametrize("read_first", [True, False], ids=["built", "unbuilt"])
def test_close_releases_the_backend_when_a_checkpoint_write_raises(tmp_path, read_first):
    """A read-only connection makes the index checkpoint raise
    ``sqlite3.OperationalError``, which is no ``PassError``: it reaches the
    caller, and the connection is closed first, whether or not a lineage
    read built the labelling."""
    client = repro.connect(f"sqlite:///{tmp_path / 'pass.db'}")
    root = ProvenanceRecord({"domain": "x", "label": "root"})
    child = root.derive({"domain": "x", "label": "child"})
    client.publish_many([TupleSet([], root), TupleSet([], child)])
    if read_first:
        assert client.ancestors(child.pname()).records == [root.pname()]  # the labelling now exists
    assert client.stats()["closure"]["built"] is read_first
    backend = client.store.backend
    backend._connection.execute("PRAGMA query_only=ON")

    with pytest.raises(sqlite3.OperationalError):
        client.close()
    with pytest.raises(StorageError):
        backend.record_count()  # closed; before, the connection stayed open for good
    client.close()  # and a second close is still a no-op
