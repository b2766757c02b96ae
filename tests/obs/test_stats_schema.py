"""The golden-key stats() contract: every connect target, one schema.

``docs/OBSERVABILITY.md`` documents the top-level keys each target
family's ``stats()`` answer carries; the ``STATS_*_KEYS`` constants in
:mod:`repro.obs` are that contract in code.  This suite holds every
target to it, so a refactor that drops (or silently renames) a stats
block fails here and not in a user's dashboard.
"""

from __future__ import annotations

import pytest

from repro.api import Q, connect
from repro.obs import (
    STATS_COMMON_KEYS,
    STATS_LOCAL_KEYS,
    STATS_MODEL_KEYS,
    STATS_REMOTE_KEYS,
)
from repro.sensors.workloads import TrafficWorkload
from repro.storage.sqlite import RECORD_CACHE_CAPACITY

LOCAL_TARGETS = ["memory://", "sqlite://", "sqlite://?shards=4", "memory://?shards=2"]
MODEL_TARGETS = [
    "centralized://",
    "distributed-db://",
    "federated://",
    "soft-state://",
    "hierarchical://",
    "dht://",
    "locale-aware-pass://",
]
ALL_TARGETS = LOCAL_TARGETS + MODEL_TARGETS + ["pass://"]


@pytest.fixture(scope="module")
def workload_sets():
    workload = TrafficWorkload(seed=3, cities=("london",), stations_per_city=2)
    raw, derived = workload.all_sets(hours=0.25)
    return raw, derived


@pytest.fixture(scope="module")
def daemon_url():
    from repro.server import PassDaemon

    with PassDaemon() as daemon:
        yield daemon.address.url


@pytest.fixture(params=ALL_TARGETS, scope="module")
def exercised(request, workload_sets):
    """Each target with a little real traffic behind its stats()."""
    raw, derived = workload_sets
    url = request.param
    if url == "pass://":
        url = request.getfixturevalue("daemon_url")
    client = connect(url)
    client.publish_many(raw + derived)
    client.refresh()
    client.query(Q.attr("city") == "london", limit=5)
    yield request.param, client
    client.close()


def _expected_keys(target: str) -> frozenset:
    if target == "pass://":
        return STATS_REMOTE_KEYS
    if target in LOCAL_TARGETS:
        return STATS_LOCAL_KEYS
    return STATS_MODEL_KEYS


#: the frozen sub-schema of stats()["storage"] on every local/remote target
STORAGE_BLOCK_KEYS = frozenset(
    {
        "kind",
        "shards",
        "records",
        "group_commits",
        "batch_records",
        "commit_ms",
        "parallel_scans",
        "parallel_probes",
        "per_shard",
        "record_cache",
        "closure_restore",
        "index_restore",
    }
)

#: the frozen sub-schema of the storage block's decoded-record cache row
RECORD_CACHE_KEYS = frozenset({"capacity", "entries", "hits", "misses", "evictions"})

#: the frozen sub-schema of the storage block's index-checkpoint report
INDEX_RESTORE_KEYS = frozenset({"mode", "covered", "tail", "bytes", "reason", "deferred"})


#: the frozen sub-schema of stats()["planner"]["feedback"] wherever a
#: planner block rides (local stores and the pass:// daemon)
PLANNER_FEEDBACK_KEYS = frozenset(
    {
        "enabled",
        "queries_observed",
        "misestimates",
        "drift_events",
        "plans_invalidated",
        "stats_refreshes",
        "closure_switches",
        "hot_keys",
        "result_cache",
    }
)

#: the frozen sub-schema of the feedback block's result_cache
RESULT_CACHE_KEYS = frozenset(
    {"entries", "hits", "misses", "invalidations", "evictions"}
)

#: stats()["closure"] per strategy.  Only ``labelled`` has labels that an
#: open can leave pending, so only it reports ``labels`` / ``label_builds``;
#: the others omit both (``interval`` says ``built`` / ``rebuilds`` of its own).
CLOSURE_BLOCK_KEYS = {
    "labelled": frozenset({"strategy", "operations", "label_entries", "labels", "label_builds"}),
    "interval": frozenset(
        {"strategy", "operations", "built", "chains", "label_entries", "dirty_edges", "rebuilds", "incremental_merges"}
    ),
    "memoized": frozenset({"strategy", "operations"}),
    "naive": frozenset({"strategy", "operations"}),
}


class TestGoldenKeys:
    def test_documented_keys_are_present(self, exercised):
        target, client = exercised
        stats = client.stats()
        missing = _expected_keys(target) - set(stats)
        assert not missing, f"{target} stats() lacks documented keys: {sorted(missing)}"

    def test_common_keys_on_every_target(self, exercised):
        _, client = exercised
        stats = client.stats()
        assert STATS_COMMON_KEYS <= set(stats)

    def test_local_targets_emit_exactly_the_documented_schema(self, exercised):
        target, client = exercised
        if target not in LOCAL_TARGETS:
            pytest.skip("exact-schema check is for local stores")
        assert set(client.stats()) == STATS_LOCAL_KEYS

    def test_storage_block_keeps_its_documented_schema(self, exercised):
        """The ``storage`` block is frozen: kind, shard layout, group-commit
        and parallel-scan counters plus the closure adoption report --
        identical shape whether or not the store is sharded."""
        target, client = exercised
        stats = client.stats()
        if "storage" not in stats:
            pytest.skip("architecture models carry no storage block")
        storage = stats["storage"]
        assert set(storage) == STORAGE_BLOCK_KEYS
        assert set(storage["commit_ms"]) == {"total", "max"}
        assert len(storage["per_shard"]) == storage["shards"]
        cache = storage["record_cache"]
        assert set(cache) == RECORD_CACHE_KEYS
        assert cache["entries"] <= cache["capacity"]
        restore = storage["index_restore"]
        assert set(restore) == INDEX_RESTORE_KEYS
        # every target here opened an empty store: nothing adopted, nothing replayed
        assert (restore["mode"], restore["covered"], restore["tail"], restore["bytes"]) == ("none", 0, 0, 0)
        assert restore["deferred"] == []
        if target.startswith("memory://"):
            # records are held decoded anyway: no cache, all zeros
            assert set(cache.values()) == {0}
        elif target.startswith("sqlite://"):
            assert cache["capacity"] == RECORD_CACHE_CAPACITY * storage["shards"]
            assert cache["entries"] == storage["records"]  # publish_many filled it
        if "shards=" in target:
            assert storage["kind"] == "sharded"
            assert storage["shards"] > 1
        elif target in LOCAL_TARGETS:
            # A non-sharded store is exactly one shard of itself.
            assert storage["shards"] == 1
            assert storage["per_shard"][0]["shard"] == 0

    def test_planner_feedback_block_keeps_its_documented_schema(self, exercised):
        """The adaptive engine's feedback block is frozen: drift, refresh
        and closure-switch counters plus the hot-key result-cache facts --
        identical shape on every target that carries a planner."""
        target, client = exercised
        stats = client.stats()
        if "planner" not in stats:
            pytest.skip("architecture models carry no planner block")
        feedback = stats["planner"]["feedback"]
        assert set(feedback) == PLANNER_FEEDBACK_KEYS
        assert set(feedback["result_cache"]) == RESULT_CACHE_KEYS
        assert feedback["enabled"] is True
        assert feedback["queries_observed"] >= 1
        # The cumulative plan-cache counters ride alongside it.
        cache = stats["planner"]["cache"]
        assert {"entries", "hits", "evictions", "drift_invalidations"} <= set(cache)

    def test_closure_block_keeps_its_documented_schema(self, exercised):
        """Per strategy; a store that was never reopened has its labels
        ``built`` by zero builds, and no time is ever in the block."""
        target, client = exercised
        stats = client.stats()
        if target in MODEL_TARGETS:
            assert "closure" not in stats  # architecture models carry no closure block
            return
        closure = stats["closure"]
        assert set(closure) == CLOSURE_BLOCK_KEYS[closure["strategy"]]
        assert closure["strategy"] == ("interval" if "shards=" in target else "labelled")
        if closure["strategy"] == "labelled":
            assert (closure["labels"], closure["label_builds"]) == ("built", 0)

    @pytest.mark.parametrize("strategy", sorted(CLOSURE_BLOCK_KEYS))
    def test_closure_block_per_strategy(self, strategy, workload_sets):
        raw, derived = workload_sets
        with connect(f"memory://?closure={strategy}") as client:
            client.publish_many(raw + derived)
            client.ancestors(derived[-1].pname)
            assert set(client.stats()["closure"]) == CLOSURE_BLOCK_KEYS[strategy]

    def test_obs_block_has_the_registry_shape(self, exercised):
        _, client = exercised
        obs = client.stats()["obs"]
        assert set(obs) == {"counters", "gauges", "histograms"}

    def test_trace_ring_counters_ride_every_obs_block(self, exercised):
        """Ring drops and export truncation are first-class counters, so
        a dashboard can alert on span loss from any target's stats()."""
        _, client = exercised
        counters = client.stats()["obs"]["counters"]
        assert "trace.spans_dropped" in counters
        assert "trace.exports_truncated" in counters
        assert counters["trace.spans_dropped"] >= 0
        assert counters["trace.exports_truncated"] >= 0

    def test_op_metrics_recorded_the_traffic(self, exercised):
        target, client = exercised
        obs = client.stats()["obs"]
        if target == "pass://":
            # The daemon-side obs block counts the *tenant store's* ops;
            # this client's socket-side ops live under "client".
            obs = client.stats()["client"]
        assert obs["counters"].get("client.query", 0) >= 1
        histogram = obs["histograms"].get("client.query.ms")
        assert histogram is not None and histogram["count"] >= 1

    def test_remote_stats_carry_identity_and_client_blocks(self, exercised):
        target, client = exercised
        if target != "pass://":
            pytest.skip("remote-only keys")
        stats = client.stats()
        assert stats["tenant"] == "default"
        assert stats["target"].startswith("remote+")
        assert set(stats["client"]) == {"counters", "gauges", "histograms"}
