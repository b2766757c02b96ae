"""The index checkpoint: a reopen that adopts it answers like one that replays.

``LocalClient.close()`` writes the store's derived state (postings, edges,
intervals, points, statistics) as one zlib-over-JSON blob; the next open
adopts it when its header still describes the file and replays only the
rows past it.  These tests hold adoption to replay and to ``memory://``,
count the tail after a crash, and walk every reason a blob is refused.
"""

from __future__ import annotations

import gc
import json
import sqlite3
import zlib

import pytest

import repro
from repro import Q
from repro.api.client import LocalClient
from repro.core import GeoPoint, PassStore, ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.core.provenance import PName
from repro.errors import CrashInjectedError
from repro.storage import SQLiteBackend

KEY = "index:checkpoint"
CITIES = ("london", "boston", "oslo")
PLACES = (GeoPoint(51.5, -0.12), GeoPoint(42.36, -71.06), GeoPoint(59.91, 10.75))
UNSTORED = PName("ab" * 32)


# ----------------------------------------------------------------------
# A history every client can be taken through, and what it is then asked
# ----------------------------------------------------------------------
def _tuple_set(chain: int, link: int, parents=()) -> TupleSet:
    sequence = chain * 100 + link
    record = ProvenanceRecord(
        {
            "domain": "traffic",
            "city": CITIES[chain % 3],
            "sensor": f"s{chain}",
            "sequence": sequence,
            "window_start": Timestamp(60.0 * sequence),
            "window_end": Timestamp(60.0 * sequence + 90.0),
            "location": PLACES[chain % 3],
            "tags": ("raw" if not parents else "derived", chain),
        },
        ancestors=list(parents),
    )
    return TupleSet([SensorReading(f"s{chain}", Timestamp(60.0 * sequence), {"v": float(link)})], record)


def chains(count: int = 3, links: int = 6):
    """``count`` derivation chains of ``links`` sets each, parents first."""
    built = []
    for chain in range(count):
        previous = None
        for link in range(links):
            current = _tuple_set(chain, link, [previous.pname] if previous is not None else ())
            built.append(current)
            previous = current
    return built


def populate(client) -> dict:
    """Single and batched publishes, a two-parent set, one whose ancestor was
    never stored, annotations (one superseded) and a removal."""
    sets = chains()
    client.publish_many(sets[:9])
    for tuple_set in sets[9:]:
        client.publish(tuple_set)
    merged = _tuple_set(7, 0, [sets[5].pname, sets[11].pname])
    orphan = _tuple_set(8, 0, [UNSTORED])
    client.publish_many([merged, orphan])
    # annotations go to a root and to leaves: an annotated record is rewritten
    # last, and a replay then sees it after its descendants (docs/STORAGE.md)
    client.store.annotate(sets[0].pname, repro.Annotation("quality", "good"))
    client.store.annotate(sets[0].pname, repro.Annotation("quality", "bad"))
    client.store.annotate(merged.pname, repro.Annotation("quality", "good"))
    client.store.annotate(sets[17].pname, repro.Annotation("reviewed", True))
    client.store.remove_data(sets[7].pname)
    return {"sets": sets, "merged": merged, "orphan": orphan}


def answers(client, made: dict) -> dict:
    """Every kind of answer the indexes serve, and what the planner did for it."""
    sets, merged = made["sets"], made["merged"]
    questions = {
        "eq": Q.attr("city") == "boston",
        "eq_list": Q.attr("tags") == ("derived", 1),
        "range": Q.attr("sequence").between(3, 104),
        "window": Q.between(120.0, 6100.0),
        "near": Q.near(GeoPoint(51.4, -0.1), 50.0),
        "conjunction": Q.all(Q.attr("city") == "london", Q.attr("sequence") >= 2),
        "annotation": Q.attr("annotation:quality") == "good",
        "annotation_superseded": Q.attr("annotation:quality") == "bad",
        "derived_from": Q.derived_from(sets[6].pname),
        "live_only": Q.find(Q.attr("sensor") == "s1").exclude_removed().build(),
    }
    found = {}
    for name, question in questions.items():
        result = client.query(question)
        explain = result.explain
        found[name] = (
            sorted(pname.digest for pname in result.records),
            explain.path_kind, explain.path, explain.estimated_rows, explain.rows_scanned, explain.used_index,
        )
    for name, pname in (("merged", merged.pname), ("mid", sets[3].pname), ("orphan", made["orphan"].pname)):
        found["ancestors_" + name] = sorted(p.digest for p in client.ancestors(pname).records)
        found["descendants_" + name] = sorted(p.digest for p in client.descendants(pname).records)
    found["descendants_unstored"] = sorted(p.digest for p in client.descendants(UNSTORED).records)
    store = client.store
    found["removed"] = [store.is_removed(tuple_set.pname) for tuple_set in sets]
    found["graph_removed"] = [store.graph.is_removed(tuple_set.pname) for tuple_set in sets]
    found["statistics"] = store.statistics.snapshot()
    found["index_entries"] = store.attribute_index.entry_count()
    found["distinct_tags"] = store.attribute_index.distinct_values("tags")
    found["invariants"] = store.verify_invariants()
    return found


# ----------------------------------------------------------------------
# The blob, reached under the store
# ----------------------------------------------------------------------
def read_blob(path):
    with sqlite3.connect(path) as connection:
        row = connection.execute("SELECT body FROM index_blobs WHERE name = ?", (KEY,)).fetchone()
    return None if row is None else bytes(row[0])


def write_blob(path, body) -> None:
    with sqlite3.connect(path) as connection:
        connection.execute("DELETE FROM index_blobs WHERE name = ?", (KEY,))
        if body is not None:
            connection.execute("INSERT INTO index_blobs VALUES (?, ?)", (KEY, body))


def edited(body: bytes, edit) -> bytes:
    state = json.loads(zlib.decompress(body))
    edit(state)
    return zlib.compress(json.dumps(state).encode("utf-8"))


def restore_report(client) -> dict:
    return client.stats()["storage"]["index_restore"]


#: the attributes every ``_tuple_set`` carries
ATTRIBUTES = ("city", "domain", "location", "sensor", "sequence", "tags", "window_end", "window_start")


def every_section(*attributes) -> list:
    """``index_restore["deferred"]`` of an open that adopted postings of ``attributes`` and probed nothing yet."""
    return sorted(f"attributes:{name}" for name in attributes) + ["spatial", "temporal"]


@pytest.fixture(params=["", "?indexed=city,sequence,annotation:quality"], ids=["all", "indexed"])
def suffix(request):
    return request.param


# ----------------------------------------------------------------------
# (a) adoption == replay == memory://
# ----------------------------------------------------------------------
def test_adoption_replay_and_memory_give_the_same_answers(tmp_path, suffix):
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}{suffix}"
    with repro.connect("memory://" + suffix) as memory:
        made = populate(memory)
        expected = answers(memory, made)
    assert expected["invariants"] == []
    assert expected["removed"].count(True) == 1

    with repro.connect(url) as first:
        populate(first)
        assert restore_report(first)["mode"] == "none"
        assert answers(first, made) == expected
    blob = read_blob(path)
    assert blob is not None

    with repro.connect(url) as adopted:
        report = restore_report(adopted)
        indexed = ["city", "sequence", "annotation:quality"]
        if not suffix:
            indexed = [*ATTRIBUTES, "annotation:quality", "annotation:reviewed"]
        assert report == {
            "mode": "adopted", "covered": 20, "tail": 0, "bytes": len(blob), "reason": None,
            "deferred": every_section(*indexed),
        }
        assert answers(adopted, made) == expected

    write_blob(path, None)
    with repro.connect(url) as replayed:
        report = restore_report(replayed)
        assert (report["mode"], report["covered"], report["tail"]) == ("replayed", 0, 20)
        assert report["reason"] == "no checkpoint stored"
        assert answers(replayed, made) == expected
    # the replay left the indexes newer than the (absent) checkpoint: close wrote one
    assert read_blob(path) is not None
    with repro.connect(url) as adopted:
        assert restore_report(adopted)["mode"] == "adopted"
        assert answers(adopted, made) == expected


def test_records_are_named_by_position_never_by_digest(tmp_path):
    path = tmp_path / "pass.db"
    with repro.connect(f"sqlite:///{path}") as client:
        made = populate(client)
    text = zlib.decompress(read_blob(path)).decode("utf-8")
    for tuple_set in made["sets"]:
        assert tuple_set.pname.digest not in text
    # the one node that is no record has no position to go by
    assert text.count(UNSTORED.digest) == 1


def test_publishes_after_adoption_extend_the_adopted_indexes(tmp_path):
    url = f"sqlite:///{tmp_path / 'pass.db'}"
    extra = [_tuple_set(5, link) for link in range(3)]
    with repro.connect("memory://") as memory:
        made = populate(memory)
        memory.publish_many(extra)
        memory.store.annotate(made["sets"][8].pname, repro.Annotation("quality", "good"))
        expected = answers(memory, made)
    with repro.connect(url) as client:
        populate(client)
    with repro.connect(url) as client:
        assert restore_report(client)["mode"] == "adopted"
        client.publish_many(extra)
        client.store.annotate(made["sets"][8].pname, repro.Annotation("quality", "good"))
        assert answers(client, made) == expected
    with repro.connect(url) as client:
        assert restore_report(client)["covered"] == 23
        assert answers(client, made) == expected


def test_a_session_that_only_annotates_still_renews_the_checkpoint(tmp_path):
    path = tmp_path / "pass.db"
    sets = chains(1, 3)
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(sets)
    before = read_blob(path)
    with repro.connect(f"sqlite:///{path}") as client:
        client.store.annotate(sets[1].pname, repro.Annotation("quality", "good"))
    assert read_blob(path) != before
    with repro.connect(f"sqlite:///{path}") as client:
        report = restore_report(client)
        assert (report["mode"], report["covered"], report["tail"]) == ("adopted", 3, 0)
        assert client.query(Q.attr("annotation:quality") == "good").records == [sets[1].pname]


# ----------------------------------------------------------------------
# (b) crashes: the tail is what committed since the checkpoint
# ----------------------------------------------------------------------
def _crashing_client(path, writes: int) -> LocalClient:
    return LocalClient(PassStore(SQLiteBackend(path, crash_after_writes=writes)))


def test_a_crash_after_a_checkpoint_replays_only_what_committed_since(tmp_path):
    path = tmp_path / "pass.db"
    sets = chains(2, 6)
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(sets[:5])

    # a publish is two writes (record, payload) in one transaction: the
    # fourth publish is refused its second write and commits nothing
    crashing = _crashing_client(path, writes=7)
    assert restore_report(crashing)["mode"] == "adopted"
    committed = []
    with pytest.raises(CrashInjectedError):
        for tuple_set in sets[5:]:
            crashing.publish(tuple_set)
            committed.append(tuple_set)
    assert len(committed) == 3
    crashing.close()  # on a dead backend: swallowed, nothing written

    with repro.connect("memory://") as memory:
        memory.publish_many(sets[:5] + committed)
        expected = {p.digest for p in memory.query(Q.attr("sensor") == "s1").records}
        lineage = {p.digest for p in memory.ancestors(committed[-1].pname).records}
    with repro.connect(f"sqlite:///{path}") as client:
        report = restore_report(client)
        assert (report["mode"], report["covered"], report["tail"]) == ("adopted", 5, 3)
        assert {p.digest for p in client.query(Q.attr("sensor") == "s1").records} == expected
        assert {p.digest for p in client.ancestors(committed[-1].pname).records} == lineage
        assert len(client.store) == 8
        assert client.store.verify_invariants() == []
    with repro.connect(f"sqlite:///{path}") as client:
        assert restore_report(client) == {
            "mode": "adopted", "covered": 8, "tail": 0, "bytes": len(read_blob(path)), "reason": None,
            "deferred": every_section(*ATTRIBUTES),
        }


def test_an_annotation_that_outlived_its_session_refuses_the_checkpoint(tmp_path):
    """``INSERT OR REPLACE`` moves the annotated record past the covered
    rowid: fewer covered rows than the header counted, so the blob (which
    lacks the annotation's posting) is not trusted."""
    path = tmp_path / "pass.db"
    sets = chains(1, 4)
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(sets)
    crashing = _crashing_client(path, writes=1)
    crashing.store.annotate(sets[1].pname, repro.Annotation("quality", "good"))
    with pytest.raises(CrashInjectedError):
        crashing.publish(_tuple_set(4, 0))
    crashing.close()

    with repro.connect(f"sqlite:///{path}") as client:
        report = restore_report(client)
        assert (report["mode"], report["tail"]) == ("replayed", 4)
        assert report["reason"] == "covered row rewritten: 3 of 4 covered records remain"
        found = client.query(Q.attr("annotation:quality") == "good").records
        assert found == [sets[1].pname]
    with repro.connect(f"sqlite:///{path}") as client:
        assert restore_report(client)["mode"] == "adopted"
        assert client.query(Q.attr("annotation:quality") == "good").records == [sets[1].pname]


def test_the_last_covered_record_rewritten_is_noticed_too(tmp_path):
    """The rewritten row takes a rowid past the old maximum, never the one it had."""
    path = tmp_path / "pass.db"
    sets = chains(1, 3)
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(sets)
    crashing = _crashing_client(path, writes=1)
    crashing.store.annotate(sets[-1].pname, repro.Annotation("quality", "good"))
    crashing.store.backend._connection.close()  # the process dies here
    with repro.connect(f"sqlite:///{path}") as client:
        assert restore_report(client)["reason"].startswith("covered row rewritten")
        assert client.query(Q.attr("annotation:quality") == "good").records == [sets[-1].pname]


# ----------------------------------------------------------------------
# (c) every reason a blob is refused
# ----------------------------------------------------------------------
def _break_format(state):
    state["format"] = 99


def _point_past_the_records(state):
    state["attributes"]["postings"]["city"]["s:boston"][0] = state["count"] + 5


def _point_before_the_records(state):
    state["temporal"]["positions"][0] = -1


def _close_a_cycle(state):
    parents = state["graph"]["parents"]
    child = next(at for at, listed in enumerate(parents) if listed)
    parents[parents[child][0]].append(child)


def _drop_a_section(state):
    del state["spatial"]


def _wrong_shape(state):
    state["attributes"]["postings"] = ["not", "a", "mapping"]


def _unequal_columns(state):
    state["spatial"]["lats"].pop()


def _bad_header(state):
    state["covered"] = "all of them"


def _duplicate_node(state):
    state["bare"].append(state["bare"][0])
    state["graph"]["parents"].append([])
    state["graph_statistics"]["depths"].append(0)


REFUSALS = {
    "truncated zlib": (lambda body: body[: len(body) // 2], "checkpoint does not decompress"),
    "not zlib": (lambda body: b"\x00" + body, "checkpoint does not decompress"),
    "zlib bomb": (lambda body: zlib.compress(b" " * (80 << 20)), "checkpoint does not decompress"),
    "non-JSON": (lambda body: zlib.compress(b"\x80 not json"), "checkpoint is not JSON"),
    "JSON, not a checkpoint": (lambda body: zlib.compress(b"[1, 2]"), "checkpoint format 'list'"),
    "wrong format number": (lambda body: edited(body, _break_format), "checkpoint format 99"),
    "bad header": (lambda body: edited(body, _bad_header), "malformed checkpoint header"),
    "position past the records": (lambda body: edited(body, _point_past_the_records), "malformed checkpoint: IndexError"),
    "negative position": (lambda body: edited(body, _point_before_the_records), "malformed checkpoint: ValueError"),
    "cyclic edge list": (lambda body: edited(body, _close_a_cycle), "malformed checkpoint: CycleError"),
    "missing section": (lambda body: edited(body, _drop_a_section), "malformed checkpoint: KeyError"),
    "wrong shape": (lambda body: edited(body, _wrong_shape), "malformed checkpoint: AttributeError"),
    "unequal columns": (lambda body: edited(body, _unequal_columns), "malformed checkpoint: ValueError"),
    "node listed twice": (lambda body: edited(body, _duplicate_node), "malformed checkpoint: ValueError"),
}


@pytest.mark.parametrize("damage", sorted(REFUSALS))
def test_a_damaged_checkpoint_is_refused_and_replaced(tmp_path, damage):
    spoil, reason = REFUSALS[damage]
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    with repro.connect(url) as client:
        made = populate(client)
        expected = answers(client, made)
    spoiled = spoil(read_blob(path))
    write_blob(path, spoiled)

    with repro.connect(url) as client:
        report = restore_report(client)
        assert (report["mode"], report["covered"], report["tail"]) == ("replayed", 0, 20)
        assert report["bytes"] == len(spoiled)
        assert report["reason"].startswith(reason), report["reason"]
        assert answers(client, made) == expected
    assert read_blob(path) != spoiled
    with repro.connect(url) as client:
        assert restore_report(client)["mode"] == "adopted"
        assert answers(client, made) == expected


def test_changed_indexed_attributes_refuse_the_checkpoint(tmp_path):
    path = tmp_path / "pass.db"
    with repro.connect(f"sqlite:///{path}") as client:
        made = populate(client)
    narrowed = f"sqlite:///{path}?indexed=city"
    with repro.connect("memory://?indexed=city") as memory:
        populate(memory)
        expected = answers(memory, made)
    with repro.connect(narrowed) as client:
        report = restore_report(client)
        assert report["mode"] == "replayed"
        assert report["reason"] == "indexed attributes changed since the checkpoint"
        assert answers(client, made) == expected
    with repro.connect(narrowed) as client:
        assert restore_report(client)["mode"] == "adopted"
        assert answers(client, made) == expected
        assert client.store.attribute_index.indexed_attributes() == ["city"]


def test_a_checkpoint_from_another_file_is_refused(tmp_path):
    """Same record count, same covered rowid: only the names tell the files apart."""
    mine, other = tmp_path / "mine.db", tmp_path / "other.db"
    with repro.connect(f"sqlite:///{mine}") as client:
        client.publish_many(chains(2, 3))
    with repro.connect(f"sqlite:///{other}") as client:
        client.publish_many([_tuple_set(chain, 0) for chain in range(10, 16)])
    write_blob(mine, read_blob(other))
    with repro.connect(f"sqlite:///{mine}") as client:
        report = restore_report(client)
        assert (report["mode"], report["tail"]) == ("replayed", 6)
        assert report["reason"] == "checkpoint describes another file's records"
        assert len(client.query(Q.attr("sensor") == "s1").records) == 3


def test_sharded_and_memory_stores_replay_and_say_why(tmp_path):
    url = f"sqlite:///{tmp_path / 'pass.db'}?shards=2"
    with repro.connect(url) as client:
        client.publish_many(chains(2, 3))
    with repro.connect(url) as client:
        report = restore_report(client)
        assert (report["mode"], report["covered"], report["tail"], report["bytes"]) == ("replayed", 0, 6, 0)
        assert report["reason"] == "backend keeps no record order (volatile, or sharded)"
        assert client.store.backend.get_index_blob(KEY) is None
        assert client.store.verify_invariants() == []
    with repro.connect("memory://") as client:
        client.publish_many(chains(1, 2))
        assert restore_report(client) == {
            "mode": "none", "covered": 0, "tail": 0, "bytes": 0,
            "reason": "backend keeps no record order (volatile, or sharded)", "deferred": [],
        }
        gets = client.store.backend.stats.gets
        assert client.store.persist_index_checkpoint() is False
        assert client.store.backend.stats.gets == gets


# ----------------------------------------------------------------------
# (d) a session that changes nothing writes nothing
# ----------------------------------------------------------------------
def test_a_clean_open_query_close_cycle_writes_nothing(tmp_path):
    path = tmp_path / "pass.db"
    with repro.connect(f"sqlite:///{path}") as client:
        made = populate(client)
    blob = read_blob(path)
    for _ in range(2):
        client = repro.connect(f"sqlite:///{path}")
        backend = client.store.backend
        assert restore_report(client)["mode"] == "adopted"
        answers(client, made)
        client.store.remove_data(made["sets"][2].pname)  # markers are the backend's, not the checkpoint's
        puts = backend.stats.puts
        client.close()
        assert backend.stats.puts == puts
        assert read_blob(path) == blob
    with repro.connect(f"sqlite:///{path}") as client:
        assert client.store.is_removed(made["sets"][2].pname)
        assert client.store.graph.is_removed(made["sets"][2].pname)


@pytest.mark.parametrize("strategy", ["interval", "labelled"])
def test_a_clean_close_neither_hashes_nor_rewrites_the_labelling(tmp_path, monkeypatch, strategy):
    """A read-only session leaves the labelling it restored where it is; a
    strategy with no labelling to write never walks the graph for one."""
    from repro.core.graph import ProvenanceGraph

    url = f"sqlite:///{tmp_path / 'pass.db'}?closure={strategy}"
    sets = chains(2, 5)
    with repro.connect(url) as client:
        client.publish_many(sets[:8])
        client.descendants(sets[0].pname)  # an interval labelling to persist
    fingerprints = []
    fingerprint = ProvenanceGraph.fingerprint
    monkeypatch.setattr(ProvenanceGraph, "fingerprint", lambda graph: fingerprints.append(1) or fingerprint(graph))
    restored = "full" if strategy == "interval" else "none"
    for _ in range(2):
        client = repro.connect(url)
        assert client.stats()["storage"]["closure_restore"]["mode"] == restored
        assert client.ancestors(sets[4].pname).total == 4
        backend, puts = client.store.backend, client.store.backend.stats.puts
        fingerprints.clear()
        client.close()
        assert (backend.stats.puts, fingerprints) == (puts, [])
    # a session that adds an edge writes its labelling again, and the next open adopts it
    with repro.connect(url) as client:
        client.publish_many(sets[8:])
        assert client.ancestors(sets[-1].pname).total == 4
        backend, puts = client.store.backend, client.store.backend.stats.puts
    assert backend.stats.puts == puts + (2 if strategy == "interval" else 1)  # (the labelling) and the index checkpoint
    with repro.connect(url) as client:
        assert client.stats()["storage"]["closure_restore"]["mode"] == restored
        assert client.descendants(sets[5].pname).total == 4


def test_a_dirty_close_writes_the_blob_an_eager_open_would(tmp_path):
    """Sections left unbuilt until the close snapshot as if the open had built
    them all: same bytes, list values written to unbuilt attributes included."""
    path = tmp_path / "pass.db"
    with repro.connect(f"sqlite:///{path}") as client:
        made = populate(client)
    twin = tmp_path / "twin.db"
    twin.write_bytes(path.read_bytes())
    late = [_tuple_set(9, 0)]
    for name in ("sensor", "city"):  # a first list value, for attributes the checkpoint holds
        attributes = dict(late[0].provenance.attributes, **{name: ("late", len(late))})
        late.append(TupleSet([], ProvenanceRecord(attributes)))
    for file, eager in ((path, False), (twin, True)):
        with repro.connect(f"sqlite:///{file}") as client:
            store = client.store
            if eager:
                store.attribute_index.entry_count(), len(store.spatial_index)
                store.temporal_index.estimate_overlapping(Timestamp(0.0), Timestamp(0.0))
                assert store.unbuilt_sections() == []
            client.publish_many(late)
            store.annotate(made["sets"][4].pname, repro.Annotation("quality", "fair"))
            client.query(Q.attr("city") == "london")
            assert (store.unbuilt_sections() == []) is eager
    assert read_blob(path) == read_blob(twin)


def test_a_record_written_under_the_store_is_not_claimed(tmp_path):
    """The store checkpoints what it indexed; a row it never saw is left to the next replay."""
    path = tmp_path / "pass.db"
    sets = chains(1, 3)
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(sets[:2])
        client.store.backend.put_record(sets[2].provenance)
        # ... and is what the write path's "unknown to the graph is fresh" may not meet
        assert client.store.verify_invariants() == [f"stored record {sets[2].pname.short} is not a graph node"]
    with repro.connect(f"sqlite:///{path}") as client:
        assert restore_report(client)["mode"] == "replayed"
        assert client.query(Q.attr("sequence") == 2).records == [sets[2].pname]
        assert client.store.verify_invariants() == []


# ----------------------------------------------------------------------
# (e) an open leaves the closure labels to the first lineage read
# ----------------------------------------------------------------------
def labels(client) -> tuple:
    closure = client.stats()["closure"]
    return closure["labels"], closure["label_builds"], closure["label_entries"]


def test_a_session_without_lineage_reads_never_builds_the_labels(tmp_path):
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    sets = chains(2, 6)
    with repro.connect(url) as client:
        client.publish_many(sets[:8])
        assert labels(client) == ("built", 0, 32)  # a new file: kept edge by edge, never pending
    with repro.connect(url) as client:
        assert restore_report(client)["mode"] == "adopted"
        assert labels(client) == ("pending", 0, 0)
        client.publish(sets[8])  # derived: an edge into the adopted graph
        client.publish(_tuple_set(4, 0))  # raw
        client.publish_many(sets[9:])
        assert len(client.query(Q.attr("sensor") == "s1").records) == 6
        assert client.query(Q.attr("sequence").between(100, 103), limit=2).total == 4
        assert labels(client) == ("pending", 0, 0)
        assert client.store.closure.operations == 0
    with repro.connect(url) as client:
        # the pending session checkpointed its graph all the same
        report = restore_report(client)
        assert (report["mode"], report["covered"], report["tail"]) == ("adopted", 13, 0)
        assert labels(client) == ("pending", 0, 0)
        assert sorted(p.digest for p in client.ancestors(sets[-1].pname).records) == sorted(
            s.pname.digest for s in sets[6:11]
        )
        assert labels(client) == ("built", 1, 60)
        client.descendants(sets[0].pname)
        assert client.query(Q.derived_from(sets[0].pname)).total == 5
        assert labels(client) == ("built", 1, 60)


@pytest.mark.parametrize("first_read", ["ancestors", "derived_from", "explain"])
def test_a_replayed_open_leaves_the_labels_pending_too(tmp_path, first_read):
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    sets = chains(2, 6)
    with repro.connect(url) as client:
        client.publish_many(sets)
    write_blob(path, None)
    with repro.connect(url) as client:
        assert restore_report(client)["mode"] == "replayed"
        assert labels(client) == ("pending", 0, 0)
        if first_read == "ancestors":
            assert client.ancestors(sets[5].pname).total == 5
        elif first_read == "derived_from":
            assert client.query(Q.derived_from(sets[6].pname)).total == 5
        else:
            assert client.explain(Q.derived_from(sets[6].pname)).path_kind == "lineage-descendants"
        assert labels(client) == ("built", 1, 60)
        assert client.descendants(sets[0].pname).total == 5
        assert labels(client) == ("built", 1, 60)


def test_rebuilding_the_lineage_index_builds_pending_labels_now(tmp_path):
    url = f"sqlite:///{tmp_path / 'pass.db'}"
    sets = chains(2, 6)
    with repro.connect(url) as client:
        client.publish_many(sets)
    with repro.connect(url) as client:
        stats = client.rebuild_lineage_index()
        assert (stats["labels"], stats["label_builds"], stats["label_entries"]) == ("built", 1, 60)
        client.ancestors(sets[5].pname)
        assert labels(client) == ("built", 1, 60)
        # ... and run again it recomputes them, which is what the verb promises
        client.store.closure._descendant_labels[sets[0].pname.digest].clear()
        assert client.descendants(sets[0].pname).total == 0
        assert client.rebuild_lineage_index()["label_builds"] == 2
        assert client.descendants(sets[0].pname).total == 5


def test_a_descendant_watch_fires_on_the_first_publish_after_an_open(tmp_path):
    url = f"sqlite:///{tmp_path / 'pass.db'}"
    sets = chains(1, 4)
    with repro.connect(url) as client:
        client.publish_many(sets[:3])
    with repro.connect(url) as client:
        seen = []
        client.subscribe_descendants(sets[0].pname, callback=seen.append)
        assert client.stats()["stream"]["lineage_matching"] == "shared-index"
        assert labels(client)[0] == "pending"
        client.publish(_tuple_set(5, 0))  # unrelated: asks the closure, matches nothing
        client.publish(sets[3])
        assert [event.pname for event in seen] == [sets[3].pname]
        assert labels(client) == ("built", 1, 12)


def test_the_open_is_logged_once_with_what_it_did(tmp_path, caplog):
    path = tmp_path / "pass.db"
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(chains(1, 3))
    with caplog.at_level("INFO", logger="repro.core"):
        with repro.connect(f"sqlite:///{path}") as client:
            client.query(Q.attr("city") == "london")
    messages = [record.getMessage() for record in caplog.records if record.name == "repro.core"]
    assert len(messages) == 1
    assert messages[0].startswith("store opened: mode=adopted covered=3 tail=0 reason=None duration_ms=")


# ----------------------------------------------------------------------
# (f) the collector is as the caller had it, however the open ends
# ----------------------------------------------------------------------
@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_an_open_leaves_the_collector_as_it_found_it(tmp_path, collector):
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    sets = chains(2, 4)
    with repro.connect(url) as client:
        client.publish_many(sets)
        assert gc.isenabled() is collector
    for blob_kept in (True, False):
        if not blob_kept:
            write_blob(path, None)
        with repro.connect(url) as client:
            assert gc.isenabled() is collector
            assert restore_report(client)["mode"] == ("adopted" if blob_kept else "replayed")
            client.ancestors(sets[3].pname)  # the label build pauses it too
            assert gc.isenabled() is collector
    with repro.connect("memory://") as client:
        assert gc.isenabled() is collector


def test_the_load_and_the_label_build_run_with_the_collector_paused(tmp_path, monkeypatch):
    from repro.core.closure import LabelledClosure

    url = f"sqlite:///{tmp_path / 'pass.db'}"
    sets = chains(1, 3)
    with repro.connect(url) as client:
        client.publish_many(sets)
    seen = []

    def recorded(method):
        def wrapper(self, *args):
            seen.append((method.__name__, gc.isenabled()))
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(SQLiteBackend, "removed_pnames", recorded(SQLiteBackend.removed_pnames))
    monkeypatch.setattr(LabelledClosure, "_propagate", recorded(LabelledClosure._propagate))
    assert gc.isenabled()
    with repro.connect(url) as client:
        client.ancestors(sets[2].pname)
        assert seen == [("removed_pnames", False), ("_propagate", False), ("_propagate", False)]
        client.publish(_tuple_set(0, 3, [sets[2].pname]))  # an ordinary write is not a bulk load
        assert seen[-1] == ("_propagate", True)


def _garbage_file(path):
    path.write_bytes(b"not a database at all" * 100)
    return lambda: repro.connect(f"sqlite:///{path}")


def _undecodable_record(path):
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(chains(1, 3))
    write_blob(path, None)
    with sqlite3.connect(path) as connection:
        connection.execute("UPDATE records SET body = '{' WHERE rowid = 2")
    return lambda: repro.connect(f"sqlite:///{path}")


def _crashed_backend(path):
    backend = SQLiteBackend(path, crash_after_writes=0)
    with pytest.raises(CrashInjectedError):
        backend.put_record(chains(1, 1)[0].provenance)
    return lambda: PassStore(backend)


@pytest.mark.parametrize("failure", [_garbage_file, _undecodable_record, _crashed_backend])
def test_an_open_that_raises_leaves_the_collector_as_it_found_it(tmp_path, collector, failure):
    opening = failure(tmp_path / "pass.db")
    with pytest.raises(Exception) as raised:
        opening()
    assert not isinstance(raised.value, AssertionError)
    assert gc.isenabled() is collector


# ----------------------------------------------------------------------
# (g) strategies that were lazy already open as they did
# ----------------------------------------------------------------------
def test_interval_and_sharded_opens_report_what_they_always_did(tmp_path):
    sets = chains(3, 5)
    full = {"mode": "full", "adopted": 1, "shards": 1, "stale": [], "reason": None}
    for suffix, restored in (("?shards=2", {**full, "adopted": 2, "shards": 2}), ("?closure=interval", full)):
        path = tmp_path / f"pass{len(suffix)}.db"
        url = f"sqlite:///{path}{suffix}"
        with repro.connect(url) as client:
            client.publish_many(sets[:10])
            client.descendants(sets[0].pname)  # a labelling to persist
        with repro.connect(url) as client:
            storage = client.stats()["storage"]
            assert storage["closure_restore"] == restored
            closure = client.stats()["closure"]
            assert "labels" not in closure and "label_builds" not in closure
            assert (closure["built"], closure["rebuilds"], closure["dirty_edges"], closure["label_entries"]) == (
                True, 0, 0, 20,
            )
            client.publish_many(sets[10:])
            assert client.stats()["closure"]["dirty_edges"] == 4
            assert client.ancestors(sets[-1].pname).total == 4
            closure = client.stats()["closure"]
            assert (closure["rebuilds"], closure["incremental_merges"], closure["label_entries"]) == (0, 4, 30)
    # the single file with its labelling blob gone: refused, rebuilt on the first read
    with sqlite3.connect(path) as connection:
        connection.execute("DELETE FROM index_blobs WHERE name LIKE 'closure:%'")
    with repro.connect(url) as client:
        assert client.stats()["storage"]["closure_restore"] == {
            "mode": "none", "adopted": 0, "shards": 1, "stale": [], "reason": "no persisted labelling",
        }
        assert client.stats()["closure"]["built"] is False
        assert client.ancestors(sets[-1].pname).total == 4
        assert client.stats()["closure"]["rebuilds"] == 1
