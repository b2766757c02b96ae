"""A database written before the edge copy was dropped still opens and works.

The file is built with the old schema as hand DDL -- five tables, the
fifth being the ``ancestry`` edge copy and its index -- and holds one
payload whose bytes are a literal captured from the old readings codec.
The first test does not depend on which side of that change the code is
on and passes on both; the second pins what the change did to the schema.

``OLD_BODY`` is the other stored form, a ``records.body`` captured from
the generic encoder (``json.dumps(record.to_dict(), sort_keys=True, ...)``)
before the stored forms were written straight from the values: a file
that holds rows of both writers is, byte for byte, a file of one.
"""

from __future__ import annotations

import sqlite3

from repro.api import connect
from repro.core import GeoPoint, PassStore, ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.core.provenance import Agent, Annotation, PName
from repro.core.query import AttributeEquals
from repro.storage import SQLiteBackend

OLD_SCHEMA = """
CREATE TABLE records (pname TEXT PRIMARY KEY, body TEXT NOT NULL);
CREATE TABLE payloads (pname TEXT PRIMARY KEY, body BLOB NOT NULL);
CREATE TABLE removed (pname TEXT PRIMARY KEY);
CREATE TABLE ancestry (child TEXT NOT NULL, parent TEXT NOT NULL, PRIMARY KEY (child, parent));
CREATE INDEX ancestry_parent ON ancestry(parent);
CREATE TABLE index_blobs (name TEXT PRIMARY KEY, body BLOB NOT NULL);
"""

#: ``PassStore._encode_readings(OLD_READINGS)`` as the old codec wrote it
OLD_PAYLOAD = (
    b'[{"location":[51.5,-0.12],"sensor_id":"cam-0","timestamp":0.5,"values":{"at":{"__type__":'
    b'"geopoint","lat":51.5,"lon":-0.12},"seen":{"__type__":"timestamp","seconds":1.0},"speed":'
    b'42.5,"tags":{"__type__":"list","items":["a",2,{"__type__":"timestamp","seconds":3.0}]}}},'
    b'{"sensor_id":"cam-1","timestamp":1.5,"values":{"count":7,"note":"x","ok":true}}]'
)
OLD_READINGS = [
    SensorReading(
        "cam-0",
        Timestamp(0.5),
        {
            "speed": 42.5,
            "seen": Timestamp(1.0),
            "at": GeoPoint(51.5, -0.12),
            "tags": ("a", 2, Timestamp(3.0)),
        },
        location=GeoPoint(51.5, -0.12),
    ),
    SensorReading("cam-1", Timestamp(1.5), {"count": 7, "ok": True, "note": "x"}),
]
BOGUS = "0" * 64

#: ``OLD_RECORD.to_json()`` as the generic encoder wrote it
OLD_BODY = (
    '{"agents":[{"kind":"program","metadata":{"kernel":3,"ok":false,"since":{"__type__":"timestam'
    'p","seconds":10.5}},"name":"sharpen","version":"1.2"},{"kind":"sensor-network","metadata":{}'
    ',"name":"congestion-zone","version":""}],"ancestors":["ababababababababababababababababababa'
    'bababababababababababababab","cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd'
    'cd"],"annotations":[{"author":"ops","key":"quality","timestamp":12.5,"value":"good"},{"autho'
    'r":"","key":"reviewed","timestamp":null,"value":true},{"author":"ops","key":"moved","timesta'
    'mp":13,"value":{"__type__":"geopoint","lat":0.0,"lon":0.5}}],"attributes":{"big":18446744073'
    '709551617,"domain":"traffic","huge":1e+22,"label":"golden \\"body\\"\\n\\u00e9\\u2603","lanes":3,'
    '"location":{"__type__":"geopoint","lat":51.5,"lon":-0.12},"negative_zero":-0.0,"none_yet":{"'
    '__type__":"list","items":[]},"open":true,"sixteen":1e+16,"speed_limit":48.3,"tags":{"__type_'
    '_":"list","items":["a",2,2.5,false,{"__type__":"timestamp","seconds":3.0},{"__type__":"geopo'
    'int","lat":1,"lon":-2}]},"tiny":1e-07,"window_end":{"__type__":"timestamp","seconds":300},"w'
    'indow_start":{"__type__":"timestamp","seconds":0.0}}}'
)
OLD_RECORD = ProvenanceRecord(
    {
        "domain": "traffic",
        "label": 'golden "body"\n\u00e9\u2603',
        "window_start": Timestamp(0.0),
        "window_end": Timestamp(300),
        "location": GeoPoint(51.5, -0.12),
        "speed_limit": 48.3,
        "big": 2**64 + 1,
        "tiny": 1e-07,
        "huge": 1e22,
        "sixteen": 1e16,
        "negative_zero": -0.0,
        "lanes": 3,
        "open": True,
        "tags": ("a", 2, 2.5, False, Timestamp(3.0), GeoPoint(1, -2)),
        "none_yet": (),
    },
    ancestors=[PName("ab" * 32), PName("cd" * 32)],
    agents=[
        Agent("program", "sharpen", "1.2", {"kernel": 3, "since": Timestamp(10.5), "ok": False}),
        Agent("sensor-network", "congestion-zone"),
    ],
    annotations=[
        Annotation("quality", "good", "ops", 12.5),
        Annotation("reviewed", True),
        Annotation("moved", GeoPoint(0.0, 0.5), "ops", 13),
    ],
)


def _old_file(path):
    root = ProvenanceRecord(
        {
            "domain": "traffic",
            "label": "old-file",
            "window_start": Timestamp(0.0),
            "window_end": Timestamp(300.0),
        }
    )
    child = root.derive({"domain": "traffic", "stage": "derived"})
    assert root.pname().digest.startswith("837ac386e08a4c7c")  # the captured payload's PName
    connection = sqlite3.connect(path)
    connection.executescript(OLD_SCHEMA)
    connection.executemany(
        "INSERT INTO records VALUES (?, ?)",
        [(record.pname().digest, record.to_json()) for record in (root, child)],
    )
    connection.execute("INSERT INTO payloads VALUES (?, ?)", (root.pname().digest, OLD_PAYLOAD))
    # The true edge, plus one no record vouches for: an answer built from
    # this table instead of the records would show it.
    connection.executemany(
        "INSERT INTO ancestry VALUES (?, ?)",
        [(child.pname().digest, root.pname().digest), (root.pname().digest, BOGUS)],
    )
    connection.commit()
    connection.close()
    return TupleSet(OLD_READINGS, root), child


def _tables(path):
    connection = sqlite3.connect(path)
    try:
        rows = connection.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return {name for (name,) in rows}
    finally:
        connection.close()


def test_old_file_reads_rebuilds_and_takes_publishes(tmp_path):
    path = tmp_path / "old.db"
    old, child = _old_file(path)
    store = PassStore(SQLiteBackend(path))

    assert len(store) == 2
    assert store.get_readings(old.pname) == OLD_READINGS
    assert store.query(AttributeEquals("label", "old-file")) == [old.pname]
    assert store.ancestors(child.pname()) == {old.pname}
    assert store.descendants(old.pname) == {child.pname()}
    assert store.ancestors(old.pname) == set()

    # Idempotent re-publish: P3 compares the old bytes with today's
    # encoding of the same readings, so this raises unless they are equal.
    assert store.ingest(old) == old.pname
    assert PassStore._encode_readings(OLD_READINGS) == OLD_PAYLOAD

    fresh = old.derive(
        [SensorReading("cam-2", Timestamp(2.0), {"v": 1})], {"domain": "traffic", "stage": "new"}
    )
    store.ingest(fresh)
    store.backend.close()

    reopened = PassStore(SQLiteBackend(path))
    assert len(reopened) == 3
    assert reopened.descendants(old.pname) == {child.pname(), fresh.pname}
    assert reopened.get_readings(fresh.pname) == fresh.readings
    assert reopened.verify_invariants() == []


def test_edge_copy_is_not_created_and_an_old_one_is_left_alone(tmp_path):
    fresh_path = tmp_path / "fresh.db"
    SQLiteBackend(fresh_path).close()
    assert _tables(fresh_path) == {"records", "payloads", "removed", "index_blobs"}

    old_path = tmp_path / "old.db"
    old, _ = _old_file(old_path)
    store = PassStore(SQLiteBackend(old_path))
    store.ingest(old.derive([], {"domain": "traffic", "stage": "new"}))
    store.backend.close()
    # Neither dropped (no destructive migration) nor grown.
    assert "ancestry" in _tables(old_path)
    connection = sqlite3.connect(old_path)
    assert connection.execute("SELECT COUNT(*) FROM ancestry").fetchone() == (2,)
    connection.close()


def _rows(path, table):
    connection = sqlite3.connect(path)
    try:
        return connection.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()
    finally:
        connection.close()


def test_old_file_gains_an_index_checkpoint_that_older_code_never_reads(tmp_path):
    """A file from before the index checkpoint holds no blob: it opens by
    replay, answers, and the first ``close()`` adds one row to
    ``index_blobs`` and changes nothing else.  Older code reads that table
    by name (``closure:<strategy>`` only), so the new row is invisible to it."""
    path = tmp_path / "old.db"
    old, child = _old_file(path)
    before = {table: _rows(path, table) for table in ("records", "payloads", "removed", "ancestry")}
    assert _rows(path, "index_blobs") == []

    with connect(f"sqlite:///{path}") as client:
        report = client.stats()["storage"]["index_restore"]
        assert (report["mode"], report["tail"], report["reason"]) == ("replayed", 2, "no checkpoint stored")
        assert client.query(AttributeEquals("label", "old-file")).records == [old.pname]
        assert client.ancestors(child.pname()).records == [old.pname]

    assert {table: _rows(path, table) for table in before} == before
    assert [name for name, _ in _rows(path, "index_blobs")] == ["index:checkpoint"]
    assert _tables(path) == {"records", "payloads", "removed", "ancestry", "index_blobs"}

    with connect(f"sqlite:///{path}") as client:
        report = client.stats()["storage"]["index_restore"]
        assert (report["mode"], report["covered"], report["tail"]) == ("adopted", 2, 0)
        assert client.query(AttributeEquals("label", "old-file")).records == [old.pname]
        assert client.descendants(old.pname).records == [child.pname()]
        assert client.store.get_readings(old.pname) == OLD_READINGS
        assert client.store.verify_invariants() == []


def test_stored_bodies_are_what_the_generic_encoder_wrote():
    assert OLD_RECORD.pname().digest.startswith("b9ff90c75e651784")  # the captured body's PName
    assert OLD_RECORD.to_json() == OLD_BODY
    assert ProvenanceRecord.from_json(OLD_BODY).to_json() == OLD_BODY


def test_a_file_of_old_and_new_rows_is_a_file_written_today(tmp_path):
    """The two literals as rows, then today's write path beside them: the
    same bytes, and the same answers, as a file today's code wrote alone."""
    golden = TupleSet(OLD_READINGS, OLD_RECORD)
    fresh = golden.derive(
        [SensorReading("cam-2", Timestamp(2.0), {"v": 1})], {"domain": "traffic", "stage": "new"}
    )
    mixed, today = tmp_path / "mixed.db", tmp_path / "today.db"
    connection = sqlite3.connect(mixed)
    connection.executescript(OLD_SCHEMA)
    connection.execute("INSERT INTO records VALUES (?, ?)", (golden.pname.digest, OLD_BODY))
    connection.execute("INSERT INTO payloads VALUES (?, ?)", (golden.pname.digest, OLD_PAYLOAD))
    connection.commit()
    connection.close()

    def answers(client) -> dict:
        found = {
            "label": client.query(AttributeEquals("label", OLD_RECORD.get("label"))).records,
            "quality": client.query(AttributeEquals("annotation:quality", "good")).records,
            "descendants": client.descendants(golden.pname).records,
            "ancestors": sorted(p.digest for p in client.ancestors(fresh.pname).records),
            "bodies": [client.describe_record(ts.pname).to_json() for ts in (golden, fresh)],
            "readings": [client.store.get_readings(ts.pname) for ts in (golden, fresh)],
            "invariants": client.store.verify_invariants(),
        }
        assert found["label"] == found["quality"] == [golden.pname]
        assert found["descendants"] == [fresh.pname] and found["invariants"] == []
        return found

    found = {}
    for path, sets in ((mixed, [fresh]), (today, [golden, fresh])):
        with connect(f"sqlite:///{path}") as client:
            client.publish_many(sets)
            # idempotent against either writer's rows: P3 compares the bytes
            assert client.publish(golden).first() == golden.pname
            found[path] = answers(client)
        with connect(f"sqlite:///{path}") as client:
            assert answers(client) == found[path]
    assert found[mixed] == found[today]
    assert _rows(mixed, "records") == _rows(today, "records")
    assert _rows(mixed, "payloads") == _rows(today, "payloads")
