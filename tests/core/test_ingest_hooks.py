"""Post-commit ingest hooks: ordering guarantees and lifecycle.

The contract (relied on by ``repro.stream``): a hook fires only after
the backend write, the provenance graph/closure edges, every index and
the statistics collector have all committed -- an observer never sees a
half-ingested tuple set, on the single or the batched path.
"""

from __future__ import annotations

from repro.core import PassStore, ProvenanceRecord, Timestamp, TupleSet
from repro.core.attributes import GeoPoint
from repro.core.query import AttributeEquals


def _tuple_set(i: int, parents=()) -> TupleSet:
    record = ProvenanceRecord(
        {
            "domain": "traffic",
            "city": "london",
            "sequence": i,
            "window_start": Timestamp(60.0 * i),
            "window_end": Timestamp(60.0 * i + 59.0),
            "location": GeoPoint(51.5, -0.1),
        },
        ancestors=tuple(parents),
    )
    return TupleSet([], record)


class TestHookOrdering:
    def test_hook_sees_fully_committed_record(self, store):
        observations = []

        def observer(pname, record):
            observations.append(
                {
                    "backend": store.backend.has_record(pname),
                    "payload": store.backend.get_payload(pname) is not None,
                    "graph": pname in store.graph,
                    "attr_index": pname.digest in store.attribute_index.lookup("city", "london"),
                    "queryable": pname in store.query(AttributeEquals("sequence", record.get("sequence"))),
                    "counted": store.stats.ingested,
                }
            )

        store.add_ingest_hook(observer)
        store.ingest(_tuple_set(0))
        assert len(observations) == 1
        seen = observations[0]
        assert seen["backend"] and seen["payload"] and seen["graph"]
        assert seen["attr_index"] and seen["queryable"]
        assert seen["counted"] == 1  # stats committed before the hook

    def test_hook_sees_lineage_edges(self, store):
        parent = _tuple_set(0)
        store.ingest(parent)
        ancestries = []
        store.add_ingest_hook(
            lambda pname, record: ancestries.append(store.ancestors(pname))
        )
        store.ingest(_tuple_set(1, parents=[parent.pname]))
        assert ancestries == [{parent.pname}]

    def test_batched_ingest_fires_after_the_whole_batch(self, store):
        """A hook querying mid-batch must see the complete batch committed."""
        batch = [_tuple_set(i) for i in range(4)]
        sizes = []
        store.add_ingest_hook(lambda pname, record: sizes.append(len(store)))
        store.ingest_many(batch)
        assert sizes == [4, 4, 4, 4]

    def test_metadata_only_ingest_fires(self, store):
        fired = []
        store.add_ingest_hook(lambda pname, record: fired.append(pname))
        record = _tuple_set(0).provenance
        store.ingest_record(record)
        assert fired == [record.pname()]

    def test_idempotent_paths_do_not_fire(self, store):
        fired = []
        ts = _tuple_set(0)
        store.ingest(ts)
        store.add_ingest_hook(lambda pname, record: fired.append(pname))
        store.ingest(ts)  # already stored: nothing new committed
        store.ingest_record(ts.provenance)
        store.ingest_many([ts])
        assert fired == []

    def test_remove_hook(self, store):
        fired = []
        hook = lambda pname, record: fired.append(pname)  # noqa: E731
        store.add_ingest_hook(hook)
        store.remove_ingest_hook(hook)
        store.remove_ingest_hook(hook)  # unknown hooks are ignored
        store.ingest(_tuple_set(0))
        assert fired == []

    def test_multiple_hooks_fire_in_registration_order(self, store):
        calls = []
        store.add_ingest_hook(lambda pname, record: calls.append("first"))
        store.add_ingest_hook(lambda pname, record: calls.append("second"))
        store.ingest(_tuple_set(0))
        assert calls == ["first", "second"]
