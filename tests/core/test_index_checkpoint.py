"""The index checkpoint: a reopen that adopts it answers like one that replays.

``LocalClient.close()`` writes the store's derived state (postings, edges,
intervals, points) as one zlib blob, a JSON header line and packed
columns; the next open
adopts it when its header still describes the file and replays only the
rows past it.  These tests hold adoption to replay and to ``memory://``,
count the tail after a crash, and walk every reason a blob is refused.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import sqlite3
import zlib
from array import array
from itertools import accumulate, chain
from pathlib import Path

import pytest

import repro
from repro import Q
from repro.api.client import LocalClient
from repro.core import GeoPoint, PassStore, ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.core.provenance import PName
from repro.errors import CrashInjectedError
from repro.index.sections import pack, read_columns, read_header
from repro.lineage.interval import IntervalClosure
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
    found["statistics"] = store.planner_statistics()
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


#: the columns of each point and interval section, and their types
COLUMNS = {
    "temporal": {"starts": "d", "ends": "d", "positions": "q"},
    "spatial": {"lats": "d", "lons": "d", "positions": "q"},
}


def _view(body: bytes) -> dict:
    """A stored blob as plain lists, each section in the shape format 1 stored
    it: one parent list per node, ``{key: positions}`` per attribute."""
    state = read_columns(*read_header(zlib.decompress(body)))
    counts, parents = state["graph"]["counts"], state["graph"]["parents"]
    state["graph"] = {"parents": [parents[end - count:end].tolist() for count, end in zip(counts, accumulate(counts))]}
    for name, section in state["attributes"]["postings"].items():
        sizes, positions = section["sizes"], section["positions"]
        listed = [positions[end - size:end].tolist() for size, end in zip(sizes, accumulate(sizes))]
        state["attributes"]["postings"][name] = dict(zip(section["keys"], listed))
    for section in COLUMNS:
        state[section] = {name: values.tolist() for name, values in state[section].items()}
    return state


def _packed(view: dict) -> bytes:
    """The blob of a :func:`_view`: each section that still has its shape back
    in columns, anything an edit left in another shape as it is."""
    state = dict(view)
    graph = state["graph"]
    state["graph"] = {"counts": array("q", map(len, graph["parents"])), "parents": array("q", chain(*graph["parents"]))}
    postings = state["attributes"]["postings"]
    if isinstance(postings, dict):
        state["attributes"] = dict(state["attributes"], postings={
            name: {
                "keys": list(buckets),
                "sizes": array("q", map(len, buckets.values())),
                "positions": array("q", chain(*buckets.values())),
            }
            for name, buckets in postings.items()
        })
    for section, codes in COLUMNS.items():
        if section in state:
            state[section] = {name: array(codes[name], values) for name, values in state[section].items()}
    return zlib.compress(pack(state))


def edited(body: bytes, edit) -> bytes:
    state = _view(body)
    edit(state)
    return _packed(state)


def stored_header(path) -> dict:
    """The header line of the blob stored at ``path``."""
    return read_header(zlib.decompress(read_blob(path)))[0]


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


def test_one_depth_per_store_whatever_the_ingest_order_or_open_path(tmp_path):
    """A -> P -> C, then P annotated: the rewrite moves P's row past C's, so
    the replay after a session that never closed meets C before its parent.
    Depth is read off the graph, so the reopened store reports what its
    ``memory://`` twin and the graph itself do."""
    path = tmp_path / "pass.db"
    a = _tuple_set(0, 0)
    p = _tuple_set(0, 1, [a.pname])
    c = _tuple_set(0, 2, [p.pname])
    twin, client = repro.connect("memory://"), repro.connect(f"sqlite:///{path}")
    for each in (twin, client):
        for tuple_set in (a, p, c):
            each.publish(tuple_set)
        each.store.annotate(p.pname, repro.Annotation("quality", "good"))
    client.store.backend._connection.close()  # the process dies here: no checkpoint
    with twin, repro.connect(f"sqlite:///{path}") as reopened:
        assert restore_report(reopened)["mode"] == "replayed"
        statistics = reopened.stats()["planner"]["statistics"]
        assert statistics == twin.stats()["planner"]["statistics"]
        assert statistics["graph"]["depth_histogram"] == reopened.store.graph.ancestry_depth_distribution()
        assert (statistics["graph"]["max_depth"], statistics["graph"]["depth_histogram"]) == (2, {0: 1, 1: 1, 2: 1})


def test_stats_on_an_adopted_store_builds_no_section(tmp_path):
    """The statistics block is read off the sections as checked, and the
    writes kept for them, and equals the ``memory://`` twin's."""
    path = tmp_path / "pass.db"
    late = [_tuple_set(9, 0), _tuple_set(9, 1)]
    with repro.connect("memory://") as memory:
        populate(memory)
        memory.publish_many(late)
        expected = memory.stats()["planner"]["statistics"]
    with repro.connect(f"sqlite:///{path}") as client:
        populate(client)
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(late)
        deferred = client.store.unbuilt_sections()
        assert deferred == every_section(*ATTRIBUTES, "annotation:quality", "annotation:reviewed")
        assert client.stats()["planner"]["statistics"] == expected
        assert client.store.unbuilt_sections() == deferred


def test_records_are_named_by_position_never_by_digest(tmp_path):
    path = tmp_path / "pass.db"
    with repro.connect(f"sqlite:///{path}") as client:
        made = populate(client)
    text = zlib.decompress(read_blob(path)).decode("latin-1")
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


def _list_a_parent_twice(state):
    parents = state["graph"]["parents"]
    child = next(at for at, listed in enumerate(parents) if listed)
    parents[child].append(parents[child][0])


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


def _inflated(edit):
    """A damage made to the inflated stream: header line and columns as stored."""
    return lambda body: zlib.compress(edit(zlib.decompress(body)))


def _unknown_type(stream: bytes) -> bytes:
    header, columns = read_header(stream)
    header["columns"][0][1] = "x"
    return json.dumps(header).encode("utf-8") + b"\n" + bytes(columns)


def _nan_latitude(state):
    state["spatial"]["lats"][0] = float("nan")


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
    "parent listed twice": (lambda body: edited(body, _list_a_parent_twice), "malformed checkpoint: ValueError"),
    "missing section": (lambda body: edited(body, _drop_a_section), "malformed checkpoint: KeyError"),
    "wrong shape": (lambda body: edited(body, _wrong_shape), "malformed checkpoint: AttributeError"),
    "unequal columns": (lambda body: edited(body, _unequal_columns), "malformed checkpoint: ValueError"),
    "node listed twice": (lambda body: edited(body, _duplicate_node), "malformed checkpoint: ValueError"),
    "column shorter than its header says": (_inflated(lambda stream: stream[:-8]), "malformed checkpoint: ValueError"),
    "bytes after the last column": (_inflated(lambda stream: stream + bytes(8)), "malformed checkpoint: ValueError"),
    "unknown column type": (_inflated(_unknown_type), "malformed checkpoint: ValueError"),
    "header without columns": (_inflated(lambda stream: stream.split(b"\n")[0]), "malformed checkpoint: ValueError"),
    "nan latitude": (lambda body: edited(body, _nan_latitude), "malformed checkpoint: ConfigurationError"),
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


def test_the_other_byte_order_branch_writes_and_adopts_the_same_blob(tmp_path, monkeypatch):
    """Columns are stored little-endian whatever the host: forced down the
    branch a big-endian host takes, a close writes the same bytes and an open
    adopts them to the same answers."""
    natural, forced = tmp_path / "natural.db", tmp_path / "forced.db"
    with repro.connect(f"sqlite:///{natural}") as client:
        made = populate(client)
        expected = answers(client, made)
    monkeypatch.setattr("repro.index.sections.BYTE_ORDER", "big")
    with repro.connect(f"sqlite:///{forced}") as client:
        populate(client)
    assert read_blob(forced) == read_blob(natural)
    with repro.connect(f"sqlite:///{forced}") as client:
        assert restore_report(client)["mode"] == "adopted"
        assert answers(client, made) == expected


def _old_closure_section(state) -> dict:
    """A ``closure`` section in the shape older code appended to the
    checkpoint (chains and ``[chain, position, ...]`` labels named by node
    position) that labels every node as its own one-node chain: well formed,
    and wrong for any graph with an edge."""
    nodes = len(state["graph"]["parents"])
    return {
        "strategy": "interval",
        "chains": [[at] for at in range(nodes)],
        "down": [[at, 0] for at in range(nodes)],
        "up": [[at, 0] for at in range(nodes)],
    }


OLD_SECTIONS = {
    "stale": lambda section: None,
    "position past the nodes": lambda section: section["chains"][0].append(10_000),
    "negative position": lambda section: section["chains"][0].append(-1),
    "node on two chains": lambda section: section["chains"].append(section["chains"][0][:1]),
    "non-list chain": lambda section: section["chains"].__setitem__(0, 7),
    "label list missing": lambda section: section["down"].pop(),
    "odd label list": lambda section: section["up"][0].append(0),
    "label past its chain": lambda section: section["up"].__setitem__(0, [0, 99]),
    "negative chain": lambda section: section["down"].__setitem__(0, [-1, 0]),
    "chained node unlabelled": lambda section: section["down"].__setitem__(0, []),
    "no up labels": lambda section: section.pop("up"),
    "another strategy": lambda section: section.__setitem__("strategy", "labelled"),
}


@pytest.mark.parametrize("damage", sorted(OLD_SECTIONS))
def test_an_old_closure_section_is_never_read_whatever_it_holds(tmp_path, damage):
    """A checkpoint carrying the ``closure`` section older code wrote (at
    format 2 an extra header key) is adopted for its index sections, whether
    the section is stale or garbage: the first lineage read builds the
    labelling from the graph, and the next checkpoint written leaves the
    section out.  (A format-1 file is refused whole: see below.)"""
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    with repro.connect(url) as client:
        made = populate(client)
        expected = answers(client, made)

    def with_old_section(state):
        section = _old_closure_section(state)
        OLD_SECTIONS[damage](section)
        state["closure"] = section

    write_blob(path, edited(read_blob(path), with_old_section))
    with repro.connect(url) as client:
        assert restore_report(client)["mode"] == "adopted"
        assert client.stats()["storage"]["closure_restore"]["mode"] == "none"
        assert client.stats()["closure"]["built"] is False
        assert answers(client, made) == expected
        assert client.stats()["closure"]["rebuilds"] == 1
        client.publish(_tuple_set(9, 0, [made["merged"].pname]))
    assert "closure" not in stored_header(path)


def _old_statistics_sections(state) -> None:
    """``statistics`` and ``graph_statistics`` in the shape older code wrote
    them next to the index sections (counters, and one depth per node
    position), with values that fit no store: they must not be read."""
    nodes = len(state["graph"]["parents"])
    state["statistics"] = {
        "record_count": 10_000,
        "attribute_counts": {"domain": 10_000},
        "window": [-1.0, 1.0],
        "windowed_count": 10_000,
        "located_count": 10_000,
    }
    state["graph_statistics"] = {"depths": [7] * nodes, "edges": 10_000, "max_fan_in": 99}


def test_old_statistics_sections_are_never_read(tmp_path):
    """A checkpoint carrying the statistics sections older code wrote (at
    format 2 extra header keys) is adopted for its index sections; the
    statistics are read off those, the record count is what the open
    covered plus its tail, and the next checkpoint written leaves both
    sections out."""
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    late = _tuple_set(9, 0, [chains()[4].pname])
    with repro.connect("memory://") as memory:
        made = populate(memory)
        memory.publish(late)
        expected = answers(memory, made), memory.stats()["planner"]["statistics"]
    with repro.connect(url) as client:
        populate(client)
    write_blob(path, edited(read_blob(path), _old_statistics_sections))
    client = repro.connect(url)
    client.publish(late)
    client.store.backend._connection.close()  # the process dies here: the old blob stays
    with repro.connect(url) as client:
        report = restore_report(client)
        assert (report["mode"], report["covered"], report["tail"]) == ("adopted", 20, 1)
        statistics = client.stats()["planner"]["statistics"]
        assert statistics["record_count"] == report["covered"] + report["tail"] == len(client.store)
        assert (answers(client, made), statistics) == expected
        client.publish(_tuple_set(9, 1))
    assert not {"statistics", "graph_statistics"} & set(stored_header(path))


#: the blob the code before the packed columns wrote for ``chains(1, 3)``, inflated
FORMAT_1 = (
    b'{"format":1,"indexed":null,"covered":3,"count":3,"names_crc":3591467855,"bare":[],"graph":{"parents":[[],[0],'
    b'[1]]},"attributes":{"postings":{"domain":{"s:traffic":[0,1,2]},"city":{"s:london":[0,1,2]},"sensor":{"s:s0":'
    b'[0,1,2]},"sequence":{"i:0":[0],"i:1":[1],"i:2":[2]},"window_start":{"t:0.0":[0],"t:60.0":[1],"t:120.0":[2]},'
    b'"window_end":{"t:90.0":[0],"t:150.0":[1],"t:210.0":[2]},"location":{"g:51.5,-0.12":[0,1,2]},"tags":{"l:[s:raw'
    b';i:0]":[0],"l:[s:derived;i:0]":[1,2]}},"lists":{"tags":{"l:[s:raw;i:0]":["s:raw","i:0"],"l:[s:derived;i:0]":'
    b'["s:derived","i:0"]}}},"temporal":{"starts":[0.0,60.0,120.0],"ends":[90.0,150.0,210.0],"positions":[0,1,2]},'
    b'"spatial":{"lats":[51.5,51.5,51.5],"lons":[-0.12,-0.12,-0.12],"positions":[0,1,2]}}'
)


def _one_probe_per_section(sets) -> list:
    return [
        Q.attr("tags") == ("derived", 0), Q.attr("sequence").between(1, 2), Q.between(100.0, 130.0),
        Q.near(PLACES[0], 1.0), Q.derived_from(sets[0].pname),
    ]


def test_a_format_1_file_is_replayed_once_and_rewritten(tmp_path):
    """A file the code before the packed columns closed: its blob has no line
    break, so it is read whole as a header and refused for its format, the
    open replays to the ``memory://`` twin's answers, and the close writes
    format 2, which the next open adopts."""
    path = tmp_path / "pass.db"
    sets = chains(1, 3)
    with repro.connect("memory://") as memory:
        memory.publish_many(sets)
        expected = [sorted(p.digest for p in memory.query(q).records) for q in _one_probe_per_section(sets)]
    with repro.connect(f"sqlite:///{path}") as client:
        client.publish_many(sets)
    write_blob(path, zlib.compress(FORMAT_1))
    for mode, reason in (("replayed", "checkpoint format 1, this code reads 2"), ("adopted", None)):
        with repro.connect(f"sqlite:///{path}") as client:
            report = restore_report(client)
            assert (report["mode"], report["reason"]) == (mode, reason)
            found = [sorted(p.digest for p in client.query(q).records) for q in _one_probe_per_section(sets)]
            assert found == expected
        assert stored_header(path)["format"] == 2


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


@pytest.mark.parametrize("target", ["memory://", "memory://?shards=2"])
def test_closing_a_store_with_no_record_order_puts_nothing(target):
    """A labelling is checkpointed where the indexes are, and these keep no checkpoint."""
    with repro.connect(target) as client:
        sets = chains(2, 4)
        client.publish_many(sets)
        assert client.ancestors(sets[-1].pname).total == 3
        assert client.rebuild_lineage_index()["persisted"] is False
        backend, puts = client.store.backend, client.store.backend.stats.puts
    assert backend.stats.puts == puts


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


def test_a_clean_close_neither_hashes_nor_rewrites_the_labelling(tmp_path):
    """A read-only session writes nothing, lineage reads and all, and a
    session that adds an edge writes one checkpoint, which holds no labelling."""
    url = f"sqlite:///{tmp_path / 'pass.db'}"
    sets = chains(2, 5)
    with repro.connect(url) as client:
        client.publish_many(sets[:8])
        client.descendants(sets[0].pname)
    for _ in range(2):
        client = repro.connect(url)
        assert client.stats()["storage"]["closure_restore"]["mode"] == "none"
        assert client.ancestors(sets[4].pname).total == 4
        backend, puts = client.store.backend, client.store.backend.stats.puts
        client.close()
        assert backend.stats.puts == puts
    # a session that adds an edge writes the checkpoint again
    with repro.connect(url) as client:
        client.publish_many(sets[8:])
        assert client.ancestors(sets[-1].pname).total == 4
        backend, puts = client.store.backend, client.store.backend.stats.puts
    assert backend.stats.puts == puts + 1  # the index checkpoint
    assert "closure" not in stored_header(tmp_path / "pass.db")
    with repro.connect(url) as client:
        assert client.stats()["storage"]["closure_restore"]["mode"] == "none"
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
                store.attribute_index.entry_count(), store.spatial_index.within_radius(PLACES[0], 0.0)
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
    return closure["built"], closure["rebuilds"], closure["label_entries"]


def test_a_session_without_lineage_reads_never_builds_the_labels(tmp_path):
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    sets = chains(2, 6)
    with repro.connect(url) as client:
        client.publish_many(sets[:8])
        assert labels(client) == (False, 0, 0)  # a new file too
    with repro.connect(url) as client:
        assert restore_report(client)["mode"] == "adopted"
        assert labels(client) == (False, 0, 0)
        client.publish(sets[8])  # derived: an edge into the adopted graph
        client.publish(_tuple_set(4, 0))  # raw
        client.publish_many(sets[9:])
        assert len(client.query(Q.attr("sensor") == "s1").records) == 6
        assert client.query(Q.attr("sequence").between(100, 103), limit=2).total == 4
        assert labels(client) == (False, 0, 0)
        assert client.store.closure.operations == 0
    with repro.connect(url) as client:
        # the unbuilt session checkpointed its graph all the same
        report = restore_report(client)
        assert (report["mode"], report["covered"], report["tail"]) == ("adopted", 13, 0)
        assert labels(client) == (False, 0, 0)
        assert sorted(p.digest for p in client.ancestors(sets[-1].pname).records) == sorted(
            s.pname.digest for s in sets[6:11]
        )
        assert labels(client) == (True, 1, 26)
        client.descendants(sets[0].pname)
        assert client.query(Q.derived_from(sets[0].pname)).total == 5
        assert labels(client) == (True, 1, 26)


@pytest.mark.parametrize("first_read", ["ancestors", "derived_from", "explain"])
def test_a_replayed_open_leaves_the_labels_unbuilt_too(tmp_path, first_read):
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    sets = chains(2, 6)
    with repro.connect(url) as client:
        client.publish_many(sets)
    write_blob(path, None)
    with repro.connect(url) as client:
        assert restore_report(client)["mode"] == "replayed"
        assert labels(client) == (False, 0, 0)
        if first_read == "ancestors":
            assert client.ancestors(sets[5].pname).total == 5
        elif first_read == "derived_from":
            assert client.query(Q.derived_from(sets[6].pname)).total == 5
        else:
            assert client.explain(Q.derived_from(sets[6].pname)).path_kind == "lineage-descendants"
        assert labels(client) == (True, 1, 24)
        assert client.descendants(sets[0].pname).total == 5
        assert labels(client) == (True, 1, 24)


def test_rebuilding_the_lineage_index_builds_the_labels_now(tmp_path):
    url = f"sqlite:///{tmp_path / 'pass.db'}"
    sets = chains(2, 6)
    with repro.connect(url) as client:
        client.publish_many(sets)
    with repro.connect(url) as client:
        stats = client.rebuild_lineage_index()
        assert (stats["built"], stats["rebuilds"], stats["label_entries"]) == (True, 1, 24)
        client.ancestors(sets[5].pname)
        assert labels(client) == (True, 1, 24)
        # ... and run again it recomputes them, which is what the verb promises
        assert client.rebuild_lineage_index()["rebuilds"] == 2
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
        assert labels(client)[0] is False
        client.publish(_tuple_set(5, 0))  # unrelated: asks the closure, matches nothing
        client.publish(sets[3])
        assert [event.pname for event in seen] == [sets[3].pname]
        assert labels(client) == (True, 1, 10)


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
    """``_assign_chain`` is a unit of the label build, run once per set."""
    step, steps = "_assign_chain", 3
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
    monkeypatch.setattr(IntervalClosure, step, recorded(getattr(IntervalClosure, step)))
    assert gc.isenabled()
    with repro.connect(url) as client:
        client.ancestors(sets[2].pname)
        assert seen == [("removed_pnames", False)] + [(step, False)] * steps
        late = _tuple_set(0, 3, [sets[2].pname])
        client.publish(late)  # an ordinary write is not a bulk load ...
        client.ancestors(late.pname)  # ... nor is the merge of its edge
        assert seen[-1] == (step, True)


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
    """No open restores a labelling: over a clean checkpoint, one with a
    tail, a replay or shards, the default strategy opens unbuilt and its
    first lineage read builds it once."""
    not_restored = {"mode": "none", "reason": "labelling built on the first lineage read"}

    def built(client) -> tuple:
        closure = client.stats()["closure"]
        return closure["built"], closure["rebuilds"]

    sets = chains(3, 5)
    path = tmp_path / "pass.db"
    url = f"sqlite:///{path}"
    with repro.connect(url) as client:
        client.publish_many(sets[:10])
        client.descendants(sets[0].pname)
    with sqlite3.connect(path) as connection:
        assert connection.execute("SELECT name FROM index_blobs").fetchall() == [(KEY,)]
    assert "closure" not in stored_header(path)
    with repro.connect(url) as client:
        assert client.stats()["storage"]["closure_restore"] == not_restored
        closure = client.stats()["closure"]
        assert (closure["built"], closure["rebuilds"], closure["dirty_edges"], closure["label_entries"]) == (
            False, 0, 0, 0,
        )
        client.publish_many(sets[10:])
        assert client.stats()["closure"]["dirty_edges"] == 4
        assert client.ancestors(sets[-1].pname).total == 4
        closure = client.stats()["closure"]
        assert (closure["rebuilds"], closure["incremental_merges"], closure["label_entries"]) == (1, 0, 30)
    # a record past the checkpoint: the indexes are adopted, the labels built on the first read
    late = _tuple_set(2, 5, [sets[-1].pname])
    backend = SQLiteBackend(path)
    backend.put_record(late.provenance)
    backend.close()
    with repro.connect(url) as client:
        assert restore_report(client)["tail"] == 1
        assert client.stats()["storage"]["closure_restore"] == not_restored
        assert built(client) == (False, 0)
        assert client.ancestors(late.pname).total == 5
        assert built(client) == (True, 1)
    # the checkpoint gone: replayed, and built on the first read
    write_blob(path, None)
    with repro.connect(url) as client:
        assert client.stats()["storage"]["closure_restore"] == not_restored
        assert built(client) == (False, 0)
        assert client.ancestors(sets[-1].pname).total == 4
        assert built(client) == (True, 1)
    # a sharded store: the default strategy, its labels built on the first read after an open
    sharded = f"sqlite:///{tmp_path / 'sharded.db'}?shards=2"
    with repro.connect(sharded) as client:
        client.publish_many(sets)
        client.descendants(sets[0].pname)
    with repro.connect(sharded) as client:
        assert client.stats()["storage"]["closure_restore"] == not_restored
        assert built(client) == (False, 0)
        assert client.ancestors(sets[-1].pname).total == 4
        assert built(client) == (True, 1)


def _benchmark_restore_modes() -> dict:
    """``RESTORE_MODES`` of the benchmark's metric tables, loaded by path (it imports only the stdlib)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "layers" / "metrics.py"
    spec = importlib.util.spec_from_file_location("layers_metrics_for_restore_modes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RESTORE_MODES


@pytest.mark.parametrize(
    "target", ["memory://", "sqlite:///{}", "sqlite:///{}?shards=2"]
)
def test_every_restore_mode_is_one_the_benchmark_decodes(tmp_path, target):
    """The benchmark turns ``closure_restore.mode`` into a number by this table:
    a mode outside it would fail the run, on a fresh open or a reopen."""
    restore_modes = _benchmark_restore_modes()
    url = target.format(tmp_path / "pass.db")
    sets = chains(2, 4)
    seen = []
    for lineage_read in (False, True, False):
        with repro.connect(url) as client:
            seen.append(client.stats()["storage"]["closure_restore"]["mode"])
            client.publish_many(sets)
            if lineage_read:
                client.descendants(sets[0].pname)
    assert set(seen) <= set(restore_modes), seen
