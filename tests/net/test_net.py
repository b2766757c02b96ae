"""Tests for the topology and network simulator."""

from __future__ import annotations

import pytest

from repro.core import GeoPoint
from repro.errors import ConfigurationError, NetworkError, UnknownEntityError
from repro.net import NetworkSimulator, Site, Topology

LONDON = GeoPoint(51.5074, -0.1278)
BOSTON = GeoPoint(42.3601, -71.0589)
TOKYO = GeoPoint(35.6762, 139.6503)


@pytest.fixture
def topology():
    topo = Topology(hop_latency_ms=2.0, ms_per_km=0.02, local_latency_ms=0.2)
    topo.add_site(Site("london", LONDON, kind="storage"))
    topo.add_site(Site("boston", BOSTON, kind="storage"))
    topo.add_site(Site("tokyo", TOKYO, kind="consumer"))
    return topo


class TestTopology:
    def test_site_validation(self):
        with pytest.raises(ConfigurationError):
            Site("", LONDON)

    def test_latency_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            Topology(hop_latency_ms=-1.0)

    def test_duplicate_site_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            topology.add_site(Site("london", LONDON))

    def test_unknown_site_lookup(self, topology):
        with pytest.raises(UnknownEntityError):
            topology.site("mars")

    def test_membership_and_names(self, topology):
        assert "london" in topology
        assert len(topology) == 3
        assert topology.site_names == ["boston", "london", "tokyo"]

    def test_sites_filtered_by_kind(self, topology):
        assert [s.name for s in topology.sites(kind="storage")] == ["boston", "london"]

    def test_distance_and_latency_scale_together(self, topology):
        near = topology.latency_ms("london", "boston")
        far = topology.latency_ms("boston", "tokyo")
        assert far > near > topology.local_latency_ms

    def test_local_latency(self, topology):
        assert topology.latency_ms("london", "london") == 0.2

    def test_latency_formula(self, topology):
        expected = 2.0 + 0.02 * topology.distance_km("london", "boston")
        assert topology.latency_ms("london", "boston") == pytest.approx(expected)

    def test_nearest_site(self, topology):
        cambridge = GeoPoint(52.2, 0.12)
        assert topology.nearest_site(cambridge).name == "london"
        assert topology.nearest_site(cambridge, kind="consumer").name == "tokyo"

    def test_nearest_site_requires_candidates(self, topology):
        with pytest.raises(UnknownEntityError):
            topology.nearest_site(LONDON, kind="warehouse")




class TestNetworkSimulator:
    def test_send_records_stats(self, topology):
        net = NetworkSimulator(topology)
        message = net.send("london", "boston", 1000, "publish")
        assert message.latency_ms == pytest.approx(topology.latency_ms("london", "boston"))
        assert net.stats.messages == 1
        assert net.stats.bytes == 1000
        assert net.stats.by_kind["publish"]["messages"] == 1
        assert net.stats.by_link[("london", "boston")] == 1

    def test_negative_size_rejected(self, topology):
        with pytest.raises(NetworkError):
            NetworkSimulator(topology).send("london", "boston", -1, "x")

    def test_broadcast_returns_slowest(self, topology):
        net = NetworkSimulator(topology)
        slowest = net.broadcast("london", ["boston", "tokyo"], 100, "query")
        assert slowest == pytest.approx(topology.latency_ms("london", "tokyo"))
        assert net.stats.messages == 2

    def test_partition_blocks_delivery(self, topology):
        net = NetworkSimulator(topology)
        net.partition("boston")
        assert net.is_partitioned("boston")
        with pytest.raises(NetworkError):
            net.send("london", "boston", 10, "x")
        with pytest.raises(NetworkError):
            net.send("boston", "london", 10, "x")
        net.heal("boston")
        net.send("london", "boston", 10, "x")

    def test_reset_clears_counters(self, topology):
        net = NetworkSimulator(topology)
        net.send("london", "boston", 10, "x")
        net.reset()
        assert net.stats.messages == 0
        assert net.log() == []

    def test_log_and_snapshot(self, topology):
        net = NetworkSimulator(topology)
        net.send("london", "tokyo", 10, "query")
        snapshot = net.stats.snapshot()
        assert snapshot["messages"] == 1
        assert len(net.log()) == 1


class TestTrafficStatsLinks:
    def test_snapshot_reports_top_links(self, topology):
        net = NetworkSimulator(topology)
        for _ in range(3):
            net.send("london", "boston", 10, "x")
        net.send("boston", "tokyo", 10, "x")
        links = net.stats.snapshot()["links"]
        assert links["tracked"] == 2
        assert links["overflow_messages"] == 0
        assert links["top"][0] == {
            "source": "london",
            "destination": "boston",
            "messages": 3,
        }

    def test_by_link_is_capped_with_visible_overflow(self, topology):
        from repro.net import simulator as net_module
        from repro.net.simulator import Message, TrafficStats

        stats = TrafficStats()
        for index in range(net_module.BY_LINK_CAP + 5):
            stats.record(Message(f"s{index}", "d", 1, "x", 0.0))
        assert len(stats.by_link) == net_module.BY_LINK_CAP
        assert stats.link_overflow_messages == 5
        # Aggregate counters never lose messages.
        assert stats.messages == net_module.BY_LINK_CAP + 5
        # An already-tracked link keeps counting past the cap.
        stats.record(Message("s0", "d", 1, "x", 0.0))
        assert stats.by_link[("s0", "d")] == 2


class TestLogTruncation:
    def test_overflow_sets_flag_and_counts_dropped(self, topology, monkeypatch):
        from repro.net import simulator as net_module

        monkeypatch.setattr(net_module, "LOG_CAP", 10)
        net = NetworkSimulator(topology)
        for _ in range(15):
            net.send("london", "boston", 1, "x")
        assert net.log_truncated()
        assert net.log() == []
        # The 11 cleared at truncation plus the 4 sent afterwards.
        snapshot = net.snapshot()
        assert snapshot["messages"] == 15  # aggregates keep counting
        assert snapshot["log"] == {"kept": 0, "truncated": True, "dropped": 15}

    def test_reset_restores_logging(self, topology, monkeypatch):
        from repro.net import simulator as net_module

        monkeypatch.setattr(net_module, "LOG_CAP", 5)
        net = NetworkSimulator(topology)
        for _ in range(9):
            net.send("london", "boston", 1, "x")
        assert net.log_truncated()
        net.reset()
        assert not net.log_truncated()
        net.send("london", "boston", 1, "x")
        assert len(net.log()) == 1
        assert net.snapshot()["log"] == {"kept": 1, "truncated": False, "dropped": 0}
