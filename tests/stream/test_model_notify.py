"""Subscriptions on distributed targets: notify traffic through the simulator.

The Section IV comparison gains a dissemination dimension: every
delivery on an architecture model is one simulated ``notify`` message,
charged through the :class:`~repro.net.simulator.NetworkSimulator` and
surfaced per-kind in ``client.stats()["traffic"]["by_kind"]`` -- so
centralized vs. DHT vs. hierarchical push cost is measurable without
reaching into the simulator.
"""

from __future__ import annotations

import pytest

from repro.api import Q, connect
from repro.core import GeoPoint, ProvenanceRecord, Timestamp, TupleSet

DISTRIBUTED_TARGETS = [
    "centralized://",
    "distributed-db://",
    "federated://",
    "soft-state://",
    "hierarchical://",
    "dht://",
    "locale-aware-pass://",
]


def _tuple_set(i: int, city: str = "london") -> TupleSet:
    record = ProvenanceRecord(
        {
            "domain": "traffic",
            "city": city,
            "sequence": i,
            "window_start": Timestamp(60.0 * i),
            "window_end": Timestamp(60.0 * i + 59.0),
            "location": GeoPoint(51.5, -0.1),
        }
    )
    return TupleSet([], record)


@pytest.mark.parametrize("url", DISTRIBUTED_TARGETS)
class TestNotifyAcrossArchitectures:
    def test_matches_deliver_and_notify_traffic_is_visible(self, url):
        client = connect(url)
        hits = []
        client.subscribe(Q.attr("city") == "london", callback=hits.append)
        client.publish_many([_tuple_set(0), _tuple_set(1, city="boston"), _tuple_set(2)])

        assert [e.record.get("sequence") for e in hits] == [0, 2]

        stats = client.stats()
        notify = stats["traffic"]["by_kind"].get("notify")
        assert notify is not None, f"{url} charged no notify traffic"
        assert notify["messages"] == 2
        assert notify["bytes"] > 0
        assert stats["notifications_sent"] == 2
        assert stats["stream"]["subscriptions"] == 1
        assert stats["stream"]["matches"] == 2

    def test_no_subscriptions_means_no_notify_traffic(self, url):
        client = connect(url)
        client.publish_many([_tuple_set(0), _tuple_set(1)])
        stats = client.stats()
        assert "notify" not in stats["traffic"]["by_kind"]
        # The stream block keeps its full shape even when nothing ever
        # subscribed, so dashboards can key on the counters unconditionally.
        assert stats["stream"]["subscriptions"] == 0
        assert stats["stream"]["matches"] == 0
        assert stats["stream"]["records_seen"] == 0


class TestNotifyCostDiffersByArchitecture:
    def test_publish_result_charges_notify_messages(self):
        client = connect("centralized://")
        client.subscribe(Q.attr("city") == "london")
        quiet = client.publish(_tuple_set(0, city="boston"))
        noisy = client.publish(_tuple_set(1))
        # The matching publish carries exactly one extra (notify) message.
        assert noisy.cost.messages == quiet.cost.messages + 1
        assert noisy.cost.bytes > quiet.cost.bytes

    def test_subscriber_origin_routes_the_notify(self):
        client = connect("centralized://")
        # Pick a concrete consumer site; every notify should land there.
        site = client.topology.site_names[0]
        client.subscribe(Q.attr("city") == "london", origin=site)
        client.publish(_tuple_set(0))
        network = client.model.network
        assert network.stats.by_link.get((client.model.warehouse_site, site), 0) >= 1

    def test_unknown_subscriber_site_is_rejected(self):
        from repro.errors import ConfigurationError

        client = connect("centralized://")
        with pytest.raises(ConfigurationError):
            client.subscribe(Q.attr("city") == "london", origin="atlantis")

    def test_partitioned_subscriber_misses_events_loudly(self):
        client = connect("centralized://")
        site = client.topology.site_names[0]
        subscription = client.subscribe(Q.attr("city") == "london", origin=site)
        client.model.network.partition(site)
        result = client.publish(_tuple_set(0))
        assert any("notify" in note and "dropped" in note for note in result.notes)
        assert client.model.notifications_suppressed == 1
        # Delivery is gated on the simulated send: the partitioned
        # subscriber genuinely observes nothing, though the match itself
        # happened at the disseminating site -- so the per-subscription
        # and engine-level counters agree: matched 1, delivered 0.
        assert subscription.drain() == []
        assert subscription.stats()["matched"] == 1
        assert subscription.stats()["delivered"] == 0
        assert client.stats()["stream"]["matches"] == 1
        # Healing the partition resumes delivery for later publishes.
        client.model.network.heal(site)
        client.publish(_tuple_set(1))
        assert [e.record.get("sequence") for e in subscription.drain()] == [1]

    def test_two_clients_wrapping_one_model_both_receive(self):
        """Attaching a second engine must not displace the first."""
        from repro.api import wrap

        first = connect("centralized://")
        second = wrap(first.model)
        got_first, got_second = [], []
        first.subscribe(Q.attr("city") == "london", callback=got_first.append)
        second.subscribe(Q.attr("city") == "london", callback=got_second.append)
        first.publish(_tuple_set(0))
        assert len(got_first) == 1
        assert len(got_second) == 1
        # Closing one client detaches only its own engine.
        second.close()
        first.publish(_tuple_set(1))
        assert len(got_first) == 2
        assert len(got_second) == 1

    def test_late_model_watch_catches_preexisting_descent(self):
        client = connect("centralized://")
        root = _tuple_set(0)
        child_record = ProvenanceRecord(
            {"domain": "traffic", "city": "london", "sequence": 1},
            ancestors=(root.pname,),
        )
        child = TupleSet([], child_record)
        client.publish_many([root, child])
        subscription = client.subscribe_descendants(root)  # child already exists
        grandchild_record = ProvenanceRecord(
            {"domain": "traffic", "city": "london", "sequence": 2},
            ancestors=(child.pname,),
        )
        client.publish(TupleSet([], grandchild_record))
        events = subscription.drain()
        assert [e.record.get("sequence") for e in events] == [2]

    def test_lineage_triggers_work_on_models_too(self):
        client = connect("distributed-db://")
        root = _tuple_set(0)
        client.publish(root)
        subscription = client.subscribe_descendants(root)
        child_record = ProvenanceRecord(
            {"domain": "traffic", "city": "london", "sequence": 1},
            ancestors=(root.pname,),
        )
        client.publish(TupleSet([], child_record))
        events = subscription.drain()
        assert [e.watched for e in events] == [root.pname]
        assert client.stats()["traffic"]["by_kind"]["notify"]["messages"] == 1

    def test_windowed_subscription_on_a_model(self):
        from repro.stream import WindowSpec

        client = connect("dht://")
        subscription = client.subscribe(
            Q.attr("city") == "london", window=WindowSpec(size_seconds=120.0)
        )
        client.publish_many([_tuple_set(0), _tuple_set(1), _tuple_set(2)])
        events = subscription.drain()
        assert [e.count for e in events] == [2]  # [0, 120) closed by t=120
        assert client.stats()["traffic"]["by_kind"]["notify"]["messages"] == 1
