"""Subscriptions through the façade: delivery, overflow policies, lifecycle."""

from __future__ import annotations

import threading

import pytest

from repro.api import Q, connect
from repro.core import GeoPoint, ProvenanceRecord, Timestamp, TupleSet
from repro.errors import QueryError, UnsupportedQueryError
from repro.stream import DeliveryQueue, MatchEvent


def _tuple_set(i: int, city: str = "london", parents=()) -> TupleSet:
    record = ProvenanceRecord(
        {
            "domain": "traffic",
            "city": city,
            "sequence": i,
            "window_start": Timestamp(60.0 * i),
            "window_end": Timestamp(60.0 * i + 59.0),
            "location": GeoPoint(51.5, -0.1),
        },
        ancestors=tuple(parents),
    )
    return TupleSet([], record)


@pytest.fixture
def client():
    with connect("memory://") as c:
        yield c


class TestQuerySubscriptions:
    def test_callback_fires_per_matching_publish(self, client):
        hits = []
        client.subscribe(Q.attr("city") == "london", callback=hits.append)
        client.publish(_tuple_set(0))
        client.publish(_tuple_set(1, city="boston"))
        client.publish(_tuple_set(2))
        assert [e.record.get("sequence") for e in hits] == [0, 2]
        assert all(isinstance(e, MatchEvent) for e in hits)

    def test_pull_queue_delivery(self, client):
        subscription = client.subscribe(Q.attr("city") == "london")
        client.publish_many([_tuple_set(0), _tuple_set(1, city="boston"), _tuple_set(2)])
        events = subscription.drain()
        assert [e.record.get("sequence") for e in events] == [0, 2]
        assert subscription.poll() is None  # drained

    def test_events_iterator_runs_dry(self, client):
        subscription = client.subscribe(Q.attr("domain") == "traffic")
        client.publish(_tuple_set(0))
        assert len(list(subscription.events())) == 1
        assert list(subscription.events()) == []

    def test_only_publishes_after_registration_match(self, client):
        client.publish(_tuple_set(0))
        subscription = client.subscribe(Q.attr("city") == "london")
        client.publish(_tuple_set(1))
        events = subscription.drain()
        assert [e.record.get("sequence") for e in events] == [1]

    def test_matches_are_post_commit(self, client):
        """The observed record must be fully queryable when the event fires."""
        seen = []

        def probe(event):
            # Inside the notification the store already answers queries
            # for the very record being announced.
            answer = client.query(Q.attr("sequence") == event.record.get("sequence"))
            seen.append(event.pname in answer.pname_set())

        client.subscribe(Q.attr("city") == "london", callback=probe)
        client.publish(_tuple_set(0))
        client.publish_many([_tuple_set(1), _tuple_set(2)])
        assert seen == [True, True, True]

    def test_lineage_predicates_are_rejected(self, client):
        root = _tuple_set(0)
        client.publish(root)
        with pytest.raises(UnsupportedQueryError):
            client.subscribe(Q.derived_from(root))

    def test_limit_and_order_by_are_rejected(self, client):
        with pytest.raises(QueryError):
            client.subscribe(Q.find(Q.attr("city") == "london").limit(5))
        with pytest.raises(QueryError):
            client.subscribe(Q.find(Q.attr("city") == "london").order_by("sequence"))

    def test_unsubscribe_stops_delivery(self, client):
        hits = []
        subscription = client.subscribe(Q.attr("city") == "london", callback=hits.append)
        client.publish(_tuple_set(0))
        assert client.unsubscribe(subscription) is True
        client.publish(_tuple_set(1))
        assert len(hits) == 1
        assert client.unsubscribe(subscription) is False
        assert client.subscriptions() == []

    def test_subscriptions_listing_and_stats(self, client):
        subscription = client.subscribe(Q.attr("city") == "london", name="london-monitor")
        client.publish(_tuple_set(0))
        listed = client.subscriptions()
        assert [s.name for s in listed] == ["london-monitor"]
        facts = subscription.stats()
        assert facts["matched"] == 1
        assert facts["delivered"] == 1
        assert facts["dropped"] == 0
        stream = client.stats()["stream"]
        assert stream["subscriptions"] == 1
        assert stream["matches"] == 1

    def test_close_detaches_the_engine(self):
        client = connect("memory://")
        hits = []
        client.subscribe(Q.everything(), callback=hits.append)
        client.close()
        assert client.subscriptions() == []

    def test_failing_callback_does_not_starve_other_subscribers(self, client):
        """One bad consumer must not abort delivery or fail the publish."""

        def explode(event):
            raise RuntimeError("subscriber bug")

        healthy = []
        bad = client.subscribe(Q.attr("city") == "london", callback=explode)
        client.subscribe(Q.attr("city") == "london", callback=healthy.append)
        result = client.publish_many([_tuple_set(0), _tuple_set(1)])  # must not raise
        assert len(result.records) == 2
        assert len(healthy) == 2
        assert bad.stats()["errors"] == 2
        assert client.stats()["stream"]["callback_errors"] == 2
        # The records themselves committed fine.
        assert client.query(Q.attr("city") == "london").total == 2


class TestDurableTarget:
    def test_subscriptions_on_sqlite(self, tmp_path):
        """The engine rides the ingest hook, so durable stores stream too."""
        with connect(f"sqlite:///{tmp_path}/pass.db") as client:
            hits = []
            client.subscribe(Q.attr("city") == "london", callback=hits.append)
            subscription = client.subscribe_descendants(_tuple_set(0).pname)
            client.publish_many(
                [
                    _tuple_set(0),
                    _tuple_set(1, city="boston"),
                    _tuple_set(2, parents=[_tuple_set(0).pname]),
                ]
            )
            assert [e.record.get("sequence") for e in hits] == [0, 2]
            assert [e.record.get("sequence") for e in subscription.drain()] == [2]
            assert client.stats()["stream"]["matches"] == 2


class TestOverflowPolicies:
    def test_drop_oldest_keeps_the_most_recent(self, client):
        subscription = client.subscribe(
            Q.attr("domain") == "traffic", maxsize=3, overflow="drop-oldest"
        )
        client.publish_many([_tuple_set(i) for i in range(8)])
        events = subscription.drain()
        assert [e.record.get("sequence") for e in events] == [5, 6, 7]
        assert subscription.dropped == 5
        assert subscription.stats()["dropped"] == 5
        # Drop counts surface in the client-level stream stats too.
        assert client.stats()["stream"]["dropped"] == 5

    def test_block_waits_for_a_consumer(self):
        queue = DeliveryQueue(maxsize=2, overflow="block")
        queue.put("a")
        queue.put("b")
        produced = []

        def producer():
            queue.put("c")  # blocks until the main thread makes room
            produced.append(True)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not produced  # still blocked against the full queue
        assert queue.get(timeout=1.0) == "a"
        thread.join(timeout=5.0)
        assert produced == [True]
        assert queue.dropped == 0
        assert [queue.get(), queue.get()] == ["b", "c"]

    def test_unknown_policy_is_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            DeliveryQueue(maxsize=2, overflow="drop-newest")
        with pytest.raises(ConfigurationError):
            DeliveryQueue(maxsize=0)

    def test_callback_subscriptions_validate_queue_options_too(self, client):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            client.subscribe(Q.everything(), callback=print, overflow="drop-newest")
        with pytest.raises(ConfigurationError):
            client.subscribe(Q.everything(), callback=print, maxsize=-5)


class TestLineageTriggers:
    def test_descendants_fire_incrementally(self, client):
        root = _tuple_set(0)
        client.publish(root)
        subscription = client.subscribe_descendants(root)
        child = _tuple_set(1, parents=[root.pname])
        grandchild = _tuple_set(2, parents=[child.pname])
        unrelated = _tuple_set(3)
        client.publish_many([child, grandchild, unrelated])
        events = subscription.drain()
        assert [e.pname for e in events] == [child.pname, grandchild.pname]
        assert all(e.watched == root.pname for e in events)

    def test_diamond_descent_fires_once_per_publish(self, client):
        root = _tuple_set(0)
        client.publish(root)
        subscription = client.subscribe_descendants(root)
        left = _tuple_set(1, parents=[root.pname])
        right = _tuple_set(2, parents=[root.pname])
        merged = _tuple_set(3, parents=[left.pname, right.pname])
        client.publish_many([left, right, merged])
        events = subscription.drain()
        # merged descends from the root via both sides but is one publish.
        assert [e.pname for e in events] == [left.pname, right.pname, merged.pname]

    def test_watching_a_not_yet_published_pname(self, client):
        root = _tuple_set(0)
        subscription = client.subscribe_descendants(root.pname)
        client.publish(root)  # the watched node itself is not a descendant
        child = _tuple_set(1, parents=[root.pname])
        client.publish(child)
        events = subscription.drain()
        assert [e.pname for e in events] == [child.pname]

    def test_late_watch_catches_descent_via_preexisting_intermediates(self, client):
        """Subscribing after a child exists still fires for grandchildren."""
        root = _tuple_set(0)
        child = _tuple_set(1, parents=[root.pname])
        client.publish_many([root, child])
        subscription = client.subscribe_descendants(root)
        grandchild = _tuple_set(2, parents=[child.pname])
        client.publish(grandchild)
        events = subscription.drain()
        assert [e.pname for e in events] == [grandchild.pname]

    def test_known_descendants_accepts_a_one_shot_iterable(self, client):
        """A generator seed must not be half-consumed (it is read twice)."""
        engine = client._stream_engine(create=True)
        root = _tuple_set(0)
        child = _tuple_set(1, parents=[root.pname])
        client.publish_many([root, child])
        subscription = engine.subscribe_descendants(
            root.pname, known_descendants=(p for p in [child.pname])
        )
        client.publish(_tuple_set(2, parents=[child.pname]))
        events = subscription.drain()
        assert [e.record.get("sequence") for e in events] == [2]

    def test_unsubscribe_lineage(self, client):
        root = _tuple_set(0)
        client.publish(root)
        subscription = client.subscribe_descendants(root)
        client.unsubscribe(subscription)
        client.publish(_tuple_set(1, parents=[root.pname]))
        assert subscription.drain() == []

    def test_engine_delivery_counters_survive_unsubscribe(self, client):
        """stats()['stream'] counters are cumulative; they never run backwards."""
        subscription = client.subscribe(Q.attr("city") == "london", maxsize=1)
        client.publish_many([_tuple_set(0), _tuple_set(1)])  # 1 delivered kept, 1 evicted
        before = client.stats()["stream"]
        assert before["deliveries"] == 2 and before["dropped"] == 1
        client.unsubscribe(subscription)
        after = client.stats()["stream"]
        assert after["deliveries"] == 2
        assert after["dropped"] == 1

    def test_local_client_rides_the_shared_reachability_index(self, client):
        """The local engine keeps no edge/label maps; the store's closure answers."""
        root = _tuple_set(0)
        client.publish(root)
        subscription = client.subscribe_descendants(root)
        client.publish(_tuple_set(1, parents=[root.pname]))
        engine = client._stream_engine(create=False)
        assert engine.stats()["lineage_matching"] == "shared-index"
        assert engine._children_seen == {}  # no engine-side bookkeeping at all
        assert engine._taint == {}
        assert [e.record.get("sequence") for e in subscription.drain()] == [1]

    def test_graph_walking_closures_keep_label_inheritance(self):
        """A model target, where no one store holds the graph, must not walk it per ingest per watch."""
        with connect("centralized://") as model_client:
            root = _tuple_set(0)
            model_client.publish(root)
            subscription = model_client.subscribe_descendants(root)
            engine = model_client._stream_engine(create=False)
            assert engine.stats()["lineage_matching"] == "label-inheritance"
            model_client.publish(_tuple_set(1, parents=[root.pname]))
            assert [e.record.get("sequence") for e in subscription.drain()] == [1]

    def test_lineage_edge_map_is_capped_visibly(self):
        """The label-inheritance fallback (no oracle) caps its edge map loudly."""
        from repro.stream import engine as engine_module
        from repro.stream.engine import StreamEngine

        engine = StreamEngine()  # no lineage oracle: the distributed-model path
        assert engine.stats()["lineage_matching"] == "label-inheritance"
        root = _tuple_set(0)
        engine.subscribe_descendants(root.pname)
        original = engine_module.CHILDREN_SEEN_MAX_EDGES
        engine_module.CHILDREN_SEEN_MAX_EDGES = 1
        try:
            for child in (_tuple_set(1, parents=[root.pname]), _tuple_set(2, parents=[root.pname])):
                engine.on_ingest(child.pname, child.provenance)
        finally:
            engine_module.CHILDREN_SEEN_MAX_EDGES = original
        facts = engine.stats()
        assert facts.get("lineage_edges_capped") is True  # truncation is never silent

    def test_last_lineage_unsubscribe_releases_edge_tracking(self):
        """No watchers left -> the fallback engine drops its label and edge maps."""
        from repro.stream.engine import StreamEngine

        engine = StreamEngine()
        root = _tuple_set(0)
        engine.on_ingest(root.pname, root.provenance)
        subscription = engine.subscribe_descendants(root.pname)
        child = _tuple_set(1, parents=[root.pname])
        engine.on_ingest(child.pname, child.provenance)
        assert engine._children_seen  # tracked while the watch was live
        engine.unsubscribe(subscription)
        assert engine._children_seen == {}
        assert engine._taint == {}
        # And ingest stops recording edges entirely without lineage interest.
        grandchild = _tuple_set(2, parents=[root.pname])
        engine.on_ingest(grandchild.pname, grandchild.provenance)
        assert engine._children_seen == {}


class TestStoreLevelIngests:
    def test_direct_store_ingest_reaches_subscribers(self, client):
        """The hook rides PassStore.ingest, not the façade publish wrapper."""
        hits = []
        client.subscribe(Q.attr("city") == "london", callback=hits.append)
        client.store.ingest(_tuple_set(0))
        assert len(hits) == 1

    def test_idempotent_reingest_does_not_refire(self, client):
        hits = []
        client.subscribe(Q.attr("city") == "london", callback=hits.append)
        ts = _tuple_set(0)
        client.publish(ts)
        client.publish(ts)  # same provenance, same data: idempotent
        assert len(hits) == 1
