"""A local answer names each node by the graph's one ``PName`` for it.

Query pages, lineage pages and the store's own answers hand out the object
``ProvenanceGraph.name_of`` keeps, so a page costs a dict lookup per row and
no new object: the number of objects one call leaves live does not grow with
its page size.
"""

from __future__ import annotations

import gc
import pickle
import sqlite3

import pytest

import repro
from repro import Q
from repro.api.results import Result
from repro.core import PName, ProvenanceRecord, TupleSet

#: derived sets under one raw root; every set is in london
DERIVED = 79


def _sets():
    root = ProvenanceRecord({"city": "london", "sequence": 0, "stage": "raw"})
    derived = [
        ProvenanceRecord({"city": "london", "sequence": step, "stage": "derived"}, ancestors=(root.pname(),))
        for step in range(1, DERIVED + 1)
    ]
    return [TupleSet([], record) for record in (root, *derived)]


def _open(kind: str, tmp_path):
    """A client over the sets, opened as ``kind`` says."""
    path = tmp_path / "pass.db"
    if kind == "memory":
        client = repro.connect("memory://")
    elif kind == "shards":
        client = repro.connect(f"sqlite:///{path}?shards=2")
    else:
        with repro.connect(f"sqlite:///{path}") as writer:
            writer.publish_many(_sets())
        if kind == "replayed":
            with sqlite3.connect(path) as raw:
                raw.execute("DELETE FROM index_blobs WHERE name = 'index:checkpoint'")
            raw.close()
        client = repro.connect(f"sqlite:///{path}")
        assert client.stats()["storage"]["index_restore"]["mode"] == kind
        assert client.store.graph._names == {}  # no open names a node
        return client
    client.publish_many(_sets())
    return client


@pytest.fixture(params=["memory", "adopted", "replayed", "shards"])
def client(request, tmp_path):
    client = _open(request.param, tmp_path)
    yield client
    client.close()


LONDON = Q.attr("city") == "london"


def test_every_page_that_names_a_node_hands_out_one_object(client):
    root = _sets()[0].pname
    first = client.query(LONDON, limit=30)
    second = client.query(Q.attr("sequence").between(1, 40))
    lineage = client.descendants(root)
    shared = {name.digest for name in first} & {name.digest for name in second} & {n.digest for n in lineage}
    assert shared
    by_page = [{name.digest: name for name in page} for page in (first, second, lineage)]
    for digest in shared:
        name = by_page[0][digest]
        assert by_page[1][digest] is name and by_page[2][digest] is name
        fresh = PName(digest)
        assert name == fresh and hash(name) == hash(fresh) and repr(name) == repr(fresh)
    assert sorted(second.records) == sorted(PName(name.digest) for name in second.records)
    # the store's own answers hand out the same object
    digest = min(shared)
    name = by_page[0][digest]
    store = client.store
    assert {name.digest: name for name in store.query(LONDON)}[digest] is name
    assert {pair[0].digest: pair[0] for pair in store.query_records(LONDON)}[digest] is name
    assert {n.digest: n for n in store.descendants(root)}[digest] is name
    assert client.ancestors(name).records == [store.graph.name_of(root.digest)]


def test_result_equality_and_pickling_are_unchanged(client):
    page = client.query(LONDON, limit=10, offset=5)
    fresh = Result(
        records=[PName(name.digest) for name in page.records], cost=page.cost, total=page.total, offset=page.offset
    )
    assert page == fresh
    copied = pickle.loads(pickle.dumps(page))
    assert copied == page and copied.records == fresh.records
    assert type(copied.records[0]) is PName


def _live_after_one_call(call) -> int:
    """Objects the collector tracks that one call leaves live, its answer held."""
    before = gc.get_count()[0]
    answer = call()
    after = gc.get_count()[0]
    assert answer.records
    return after - before


@pytest.mark.parametrize("read", ["query", "descendants"])
def test_a_page_leaves_as_many_objects_live_at_any_size(client, read):
    """With the names warm, a page of 50 leaves no more objects than a page of 1."""
    root = _sets()[0].pname
    calls = {
        limit: (lambda limit=limit: client.query(LONDON, limit=limit))
        if read == "query"
        else (lambda limit=limit: client.descendants(root, limit=limit))
        for limit in (1, 50)
    }
    for call in calls.values():
        call(), call()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        live = {limit: _live_after_one_call(call) for limit, call in calls.items()}
    finally:
        if was_enabled:
            gc.enable()
    assert live[1] == live[50], live
