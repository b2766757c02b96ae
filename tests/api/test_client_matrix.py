"""One shared suite exercising the PassClient protocol identically on every target.

This is the acceptance test of the unified façade: the same workload is
published through ``connect()`` into each local store and each
architecture model, and publish/query/ancestors/descendants/locate must
answer consistently with the local ground truth (modulo capabilities the
paper says a model lacks, which must be refused loudly, not wrongly).
"""

from __future__ import annotations

import pytest

from repro.api import Q, Result, connect
from repro.api.client import ModelClient
from repro.core import ProvenanceRecord, Timestamp, TupleSet
from repro.errors import QueryError, UnsupportedQueryError
from repro.sensors.workloads import TrafficWorkload

ALL_TARGETS = [
    "memory://",
    "sqlite://",
    "sqlite://?shards=4",  # digest-partitioned store behind the same façade
    "centralized://",
    "distributed-db://",
    "federated://",
    "soft-state://",
    "hierarchical://",
    "dht://",
    "locale-aware-pass://",
    "pass://",  # resolved to a live daemon by the target fixture
    "pass+sharded://",  # a daemon whose tenant stores are sharded
]


@pytest.fixture(scope="module")
def workload_sets():
    workload = TrafficWorkload(seed=11, cities=("london", "boston"), stations_per_city=2)
    raw, derived = workload.all_sets(hours=0.5)
    return raw, derived


@pytest.fixture(scope="module")
def truth(workload_sets):
    raw, derived = workload_sets
    client = connect("memory://")
    client.publish_many(raw + derived)
    return client


@pytest.fixture(scope="module")
def daemon_url():
    """One live provenance daemon shared by the ``pass://`` target."""
    from repro.server import PassDaemon

    with PassDaemon() as daemon:
        yield daemon.address.url


@pytest.fixture(scope="module")
def sharded_daemon_url(tmp_path_factory):
    """A daemon serving tenants over a digest-partitioned SQLite store."""
    from repro.server import PassDaemon

    db = tmp_path_factory.mktemp("sharded-daemon") / "pass.db"
    with PassDaemon(backend_url=f"sqlite:///{db}?shards=4") as daemon:
        yield daemon.address.url


@pytest.fixture(params=ALL_TARGETS, scope="module")
def target(request, workload_sets):
    raw, derived = workload_sets
    url = request.param
    if url == "pass://":
        url = request.getfixturevalue("daemon_url")
    elif url == "pass+sharded://":
        url = request.getfixturevalue("sharded_daemon_url")
    client = connect(url)
    published = client.publish_many(raw + derived)
    client.refresh()  # soft state pushes its pending summaries
    assert len(published) == len(raw) + len(derived)
    yield client
    client.close()


#: ``order_by("n")`` sorts by value, the ordering ranges compare with: lists
#: before numbers before strings (by kind tag), ``2 < 9 < 10 < 100``, the
#: four spellings of one tie (the inner list) broken by digest, and sets
#: without ``n`` last
ORDERED_VALUES = [(3, 1), -5, [1, 1.0, True, Timestamp(1.0)], 1.5, 2, 9, 10, 100, "ten", None]


@pytest.fixture
def fresh_daemon_url():
    """A daemon of the test's own: what it publishes stays out of the shared one."""
    from repro.server import PassDaemon

    with PassDaemon() as daemon:
        yield daemon.address.url


@pytest.mark.parametrize("url", [url for url in ALL_TARGETS if url != "pass+sharded://"])
def test_order_by_orders_by_value_not_by_canonical_text(url, request):
    """By canonical text ``-5, 1.5, 10, 100, 2, 9`` came back as ``1.5, -5, 10, 100, 2, 9``."""
    if url == "pass://":
        url = request.getfixturevalue("fresh_daemon_url")
    expected, sets = [], []
    for value in ORDERED_VALUES:
        tied = []
        for spelling in value if isinstance(value, list) else [value]:
            # (found by ``domain``, which the DHT model indexes and routes to; it floods the rest)
            attributes = {"domain": "ordering", "serial": len(sets)}
            if spelling is not None:
                attributes["n"] = spelling
            sets.append(TupleSet([], ProvenanceRecord(attributes)))
            tied.append(sets[-1].pname)
        expected.extend(sorted(tied, key=lambda pname: pname.digest))
    with connect(url) as client:
        client.publish_many(sets[::-1])
        client.refresh()
        question = Q.find(Q.attr("domain") == "ordering").order_by("n")
        answer = client.query(question)
        assert answer.total == len(expected) == 13
        if isinstance(client, ModelClient):
            # a model merges per-site answers and promises the set
            assert set(answer.records) == set(expected)
        else:
            assert answer.records == expected
            assert client.query(question, limit=3, offset=2).records == expected[2:5]


class TestProtocolAcrossTargets:
    def test_attribute_query_matches_ground_truth(self, target, truth):
        question = Q.attr("city") == "london"
        expected = truth.query(question).pname_set()
        answer = target.query(question)
        assert isinstance(answer, Result)
        assert answer.pname_set() == expected

    def test_an_attribute_the_dht_does_not_index_matches_ground_truth(self, target, truth):
        """``owner``: the DHT model indexes six attributes, not this one, so it must ask every node."""
        question = Q.attr("owner") == "london-transport-authority"
        expected = truth.query(question).pname_set()
        assert len(expected) > 0
        assert target.query(question).pname_set() == expected

    def test_ordered_query_matches_ground_truth(self, target, truth):
        """A store answers ``order_by`` in one order at any shard count, in
        process or behind a daemon; a model merges per-site answers and
        promises the set."""
        question = Q.find(Q.attr("city") == "london").order_by("window_start")
        expected = truth.query(question).records
        answer = target.query(question).records
        if isinstance(target, ModelClient):
            assert set(answer) == set(expected)
        else:
            assert answer == expected

    def test_pagination_is_uniform(self, target, truth):
        question = Q.attr("city") == "london"
        full = target.query(question)
        page = target.query(question, limit=3, offset=1)
        assert len(page) == min(3, max(0, full.total - 1))
        assert page.total == full.total
        assert page.records == full.records[1:4]
        assert page.has_more == (full.total > 4)

    def test_negative_pagination_is_refused_not_counted_from_the_end(self, target, workload_sets):
        """``limit=-3`` used to drop the last three records and ``offset=-2``
        to return the last two; on ``pass://`` the daemon answers it typed."""
        raw, derived = workload_sets
        question = Q.attr("city") == "london"
        for paging in ({"limit": -3}, {"offset": -2}, {"limit": 2, "offset": -1}):
            with pytest.raises(QueryError, match="must not be negative"):
                target.query(question, **paging)
        if target.supports_lineage:
            with pytest.raises(QueryError, match="must not be negative"):
                target.ancestors(derived[0], limit=-1)
            with pytest.raises(QueryError, match="must not be negative"):
                target.descendants(raw[0], offset=-1)
        # A refusal is an answer: the client (and its connection) carries on.
        assert target.query(question, limit=0).records == []
        assert target.query(question, limit=1).total > 1

    def test_query_own_limit_still_reports_true_total(self, target, truth):
        """A ``Q.find(...).limit(n)`` must not corrupt total/has_more."""
        question = Q.attr("city") == "london"
        full_total = target.query(question).total
        limited = target.query(Q.find(question).limit(2))
        assert len(limited) == min(2, full_total)
        assert limited.total == full_total
        assert limited.has_more == (full_total > 2)
        # Explicit limit= combines with the query's limit as the stricter one.
        stricter = target.query(Q.find(question).limit(2), limit=1)
        assert len(stricter) == min(1, full_total)

    def test_ancestors_match_or_are_refused(self, target, truth, workload_sets):
        raw, derived = workload_sets
        focus = derived[0]
        if not target.supports_lineage:
            with pytest.raises(UnsupportedQueryError):
                target.ancestors(focus)
            return
        expected = truth.ancestors(focus).pname_set()
        assert target.ancestors(focus).pname_set() == expected

    def test_descendants_match_or_are_refused(self, target, truth, workload_sets):
        raw, derived = workload_sets
        focus = raw[0]
        if not target.supports_lineage:
            with pytest.raises(UnsupportedQueryError):
                target.descendants(focus)
            return
        expected = truth.descendants(focus).pname_set()
        assert target.descendants(focus).pname_set() == expected

    def test_locate_finds_published_data(self, target, workload_sets):
        raw, _ = workload_sets
        located = target.locate(raw[0])
        assert located.records == [raw[0].pname]
        assert located.cost.sites, "locate must name at least one holding site"

    def test_locate_unknown_pname_is_a_note_not_an_error(self, target, sample_tuple_set):
        located = target.locate(sample_tuple_set)
        assert len(located) == 0
        assert located.notes

    def test_stats_reports_target(self, target):
        stats = target.stats()
        assert "target" in stats
        assert stats["target"] == target.target


class TestBatchedPublish:
    def test_publish_many_equals_looped_publish(self, workload_sets):
        raw, derived = workload_sets
        looped = connect("memory://")
        for tuple_set in raw + derived:
            looped.publish(tuple_set)
        batched = connect("memory://")
        batched.publish_many(raw + derived)
        everything = Q.everything()
        assert batched.query(everything).pname_set() == looped.query(everything).pname_set()
        assert len(batched.store) == len(looped.store)
        assert batched.store.verify_invariants() == []

    def test_centralized_batch_is_one_round_trip(self, workload_sets):
        raw, derived = workload_sets
        sets = raw + derived
        looped = connect("centralized://")
        looped_cost = Result()
        for tuple_set in sets:
            looped_cost.merge(looped.publish(tuple_set))
        batched = connect("centralized://")
        batched_cost = batched.publish_many(sets)
        # Batches pay two messages per origin-site group (london, boston)
        # instead of two per set, so the saving grows with the batch.
        assert looped_cost.cost.messages == 2 * len(sets)
        assert batched_cost.cost.messages == 2 * 2
        assert batched_cost.cost.latency_ms < looped_cost.cost.latency_ms
        # ... without changing what got published.
        question = Q.attr("city") == "london"
        assert batched.query(question).pname_set() == looped.query(question).pname_set()

    def test_publish_many_on_models_preserves_answers(self, workload_sets, truth):
        raw, derived = workload_sets
        question = Q.attr("city") == "boston"
        expected = truth.query(question).pname_set()
        client = connect("distributed-db://")
        client.publish_many(raw + derived)
        assert client.query(question).pname_set() == expected


class TestRunQueryMatrix:
    def test_harness_matrix_over_urls(self, workload_sets):
        from repro.eval.harness import run_query_matrix

        raw, derived = workload_sets
        rows = run_query_matrix(
            ["memory://", "centralized://", "soft-state://"],
            raw + derived,
            {"london": Q.attr("city") == "london", "taint": Q.derived_from(raw[0])},
        )
        by_target = {row["target"]: row for row in rows}
        assert set(by_target) == {"memory://", "centralized://", "soft-state://"}
        assert by_target["memory://"]["london"] == by_target["centralized://"]["london"]
        # Soft state refuses transitive closure; the matrix reports it, not crashes.
        assert by_target["soft-state://"]["taint"] == "unsupported"
        assert by_target["centralized://"]["publish_messages"] > 0
