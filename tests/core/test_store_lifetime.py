"""A closed store goes with its last reference, without the cyclic collector.

Nothing a store, its client or their metrics providers hold refers back to
them, so ``close()`` plus dropping the last name frees the client, the store,
its graph, its closure and its backend by reference counting alone.  Every
test here runs with the collector disabled: a weak reference that is still
alive after the ``del`` means something in the store is a reference cycle
again (``docs/STORAGE.md``, "What the pause costs").
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro
from repro import Q
from repro.core import PassStore, ProvenanceRecord, SensorReading, Timestamp, TupleSet
from repro.storage import SQLiteBackend


@pytest.fixture(autouse=True)
def collector_off():
    """The cyclic collector stays off for the test: only reference counts free."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _tuple_sets(count: int = 12):
    """A derivation chain of ``count`` sets, two cities taking turns."""
    made = []
    for index in range(count):
        parents = [made[-1].pname] if made else []
        record = ProvenanceRecord(
            {"city": ("london", "oslo")[index % 2], "sequence": index, "window_start": Timestamp(60.0 * index)},
            ancestors=parents,
        )
        made.append(TupleSet([SensorReading("s", Timestamp(60.0 * index), {"v": float(index)})], record))
    return made


def _exercise(client, sets) -> None:
    """A publish, a batch, a query, a lineage read, ``stats()``, ``health()`` and a subscription."""
    subscription = client.subscribe(Q.attr("city") == "oslo")
    client.publish(sets[0])
    client.publish_many(sets[1:])
    assert client.query(Q.attr("city") == "london").total == len(sets) // 2
    assert client.ancestors(sets[-1].pname).total == len(sets) - 1
    assert client.stats()["closure"]["built"] is True
    client.health()
    assert len(subscription.drain()) == len(sets) // 2


def _watched(client) -> dict:
    """Weak references to the client and to everything its store is made of."""
    store = client.store
    return {
        "client": weakref.ref(client),
        "store": weakref.ref(store),
        "graph": weakref.ref(store.graph),
        "closure": weakref.ref(store.closure),
        "backend": weakref.ref(store.backend),
    }


def _alive(watched: dict) -> list:
    return sorted(name for name, ref in watched.items() if ref() is not None)


@pytest.mark.parametrize(
    "url",
    ["memory://", "sqlite:///{path}", "sqlite:///{path}?shards=2"],
    ids=["memory", "sqlite", "sqlite-shards"],
)
def test_a_closed_client_frees_its_store_by_reference_counting(tmp_path, url):
    client = repro.connect(url.format(path=tmp_path / "pass.db"))
    _exercise(client, _tuple_sets())
    watched = _watched(client)
    client.close()
    del client
    assert _alive(watched) == []


def test_a_reopened_store_is_freed_like_a_new_one(tmp_path):
    """An adopted open, queried and walked, then closed: freed too."""
    url = f"sqlite:///{tmp_path / 'pass.db'}"
    sets = _tuple_sets()
    with repro.connect(url) as client:
        client.publish_many(sets)
    client = repro.connect(url)
    assert client.stats()["storage"]["index_restore"]["mode"] == "adopted"
    assert client.query(Q.attr("city") == "oslo").total == len(sets) // 2
    assert client.ancestors(sets[-1].pname).total == len(sets) - 1
    watched = _watched(client)
    client.close()
    del client
    assert _alive(watched) == []


def test_a_bare_store_dropped_without_close_is_freed():
    store = PassStore()
    sets = _tuple_sets()
    store.ingest_many(sets)
    assert store.query(Q.attr("city") == "london")
    assert len(store.ancestors(sets[-1].pname)) == len(sets) - 1
    store.planner_statistics()
    parts = {"store": store, "graph": store.graph, "closure": store.closure, "backend": store.backend}
    watched = {name: weakref.ref(part) for name, part in parts.items()}
    del parts
    del store
    assert _alive(watched) == []


def test_a_wrapped_store_outlives_its_client_and_is_freed_after_it(tmp_path):
    """``wrap()`` does not own the store: its client's close leaves it
    answering; the store goes when its owner lets go of it."""
    store = PassStore(backend=SQLiteBackend(tmp_path / "pass.db"))
    client = repro.wrap(store)
    sets = _tuple_sets()
    _exercise(client, sets)
    watched = _watched(client)
    client.close()
    del client
    assert _alive(watched) == ["backend", "closure", "graph", "store"]
    assert store.query(Q.attr("city") == "oslo")
    assert len(store.ancestors(sets[-1].pname)) == len(sets) - 1
    store.backend.close()
    del store
    assert _alive(watched) == []


def test_an_unclosed_client_that_subscribed_frees_its_store():
    """The stream engine reaches the store only weakly: store -> ingest hook ->
    engine -> lineage oracle is no cycle, so a client dropped without
    ``close()`` after a query and a descendants subscription still lets its
    store go by reference counting."""
    client = repro.connect("memory://")
    sets = _tuple_sets()
    watches = [client.subscribe(Q.attr("city") == "oslo"), client.subscribe_descendants(sets[0].pname)]
    assert client.stats()["stream"]["lineage_matching"] == "shared-index"  # the store is the engine's oracle
    client.publish_many(sets)
    assert client.query(Q.attr("city") == "london").total == len(sets) // 2
    assert len(watches[1].drain()) == len(sets) - 1
    watched = _watched(client)
    del client, watches
    assert _alive(watched) == []
