"""Every read path serves lineage from the reachability index.

The acceptance bar of the lineage engine rebuild: ``Q.derived_from(x)``
/ ``Q.ancestor_of(x)`` must plan as lineage access paths -- never full
scans -- on the local stores (memory and SQLite) and on every
architecture model that supports transitive closure, with honest
estimated-vs-actual rows in the explain tree; ``client.ancestors`` /
``client.descendants`` must page deterministically like ``query`` does.
"""

from __future__ import annotations

import pytest

from repro.api import Q, connect
from repro.core import ProvenanceRecord, TupleSet
from repro.errors import UnsupportedQueryError

#: every distributed target; soft-state is the paper-mandated refusal
LINEAGE_MODEL_URLS = [
    "centralized://",
    "distributed-db://",
    "federated://",
    "hierarchical://",
    "dht://",
    "locale://",
]


def _tuple_set(i: int, parents=(), city: str = "london") -> TupleSet:
    record = ProvenanceRecord(
        {"domain": "traffic", "city": city, "sequence": i}, ancestors=tuple(parents)
    )
    return TupleSet([], record)


@pytest.fixture
def chainload():
    """A root, a chain of derived sets, and one unrelated record."""
    root = _tuple_set(0)
    chain = [root]
    for i in range(1, 6):
        chain.append(_tuple_set(i, parents=[chain[-1].pname]))
    unrelated = _tuple_set(99, city="boston")
    return chain, unrelated


def _lineage_kinds(explain) -> set:
    kinds = set()

    def walk(node):
        kinds.add(node.path_kind)
        for child in node.children:
            walk(child)

    walk(explain)
    return {kind for kind in kinds if kind.startswith("lineage")}


class TestLocalExplain:
    @pytest.mark.parametrize("url", ["memory://", "memory://?shards=2"])
    def test_derived_from_plans_as_lineage_probe(self, url, chainload):
        chain, unrelated = chainload
        with connect(url) as client:
            client.publish_many(chain + [unrelated])
            explain = client.explain(Q.find(Q.derived_from(chain[0])))
            assert explain.path_kind == "lineage-descendants"
            assert explain.used_index
            assert explain.actual_rows == len(chain) - 1
            assert explain.estimated_rows == explain.actual_rows  # closure counts exactly
            # Candidates were the closure, not the whole store.
            assert explain.rows_scanned < len(chain) + 1

    def test_ancestor_of_plans_as_lineage_probe(self, chainload):
        chain, unrelated = chainload
        with connect("memory://") as client:
            client.publish_many(chain + [unrelated])
            explain = client.explain(Q.find(Q.ancestor_of(chain[-1])))
            assert explain.path_kind == "lineage-ancestors"
            assert explain.actual_rows == len(chain) - 1

    def test_sqlite_serves_lineage_from_the_index(self, tmp_path, chainload):
        chain, unrelated = chainload
        url = f"sqlite:///{tmp_path}/pass.db"
        with connect(url) as client:
            client.publish_many(chain + [unrelated])
            explain = client.explain(Q.find(Q.derived_from(chain[0])))
            assert explain.path_kind == "lineage-descendants"
            assert explain.actual_rows == len(chain) - 1

    def test_sqlite_reopen_builds_the_labelling_on_the_first_read(self, tmp_path, chainload):
        chain, unrelated = chainload
        url = f"sqlite:///{tmp_path}/pass.db"
        with connect(url) as client:
            client.publish_many(chain + [unrelated])
            client.descendants(chain[0])
        with connect(url) as client:
            assert client.store.closure.rebuilds == 0  # the open built nothing
            taint = client.descendants(chain[0])
            assert taint.total == len(chain) - 1
            assert client.store.closure.rebuilds == 1
            assert client.descendants(chain[1]).total == len(chain) - 2
            assert client.store.closure.rebuilds == 1

    def test_lineage_and_attribute_conjunction_uses_index_intersection(self):
        root = _tuple_set(0)
        sets = [root]
        for i in range(1, 6):
            sets.append(_tuple_set(i, parents=[sets[-1].pname]))
        # Bulk of the store: unrelated records, mostly elsewhere, so the
        # city probe is selective enough to pay for its intersection.
        for i in range(100, 140):
            sets.append(_tuple_set(i, city="london" if i % 4 == 0 else "boston"))
        with connect("memory://") as client:
            client.publish_many(sets)
            explain = client.explain(
                Q.find(Q.derived_from(root) & (Q.attr("city") == "london"))
            )
            assert explain.path_kind == "index-intersection"
            assert "lineage" in explain.path
            assert explain.actual_rows == 5  # the whole chain is london

    def test_residual_semantics_survive_the_exact_probe(self, chainload):
        """limit / order_by / include_self still apply after conjunct removal."""
        chain, unrelated = chainload
        with connect("memory://") as client:
            client.publish_many(chain + [unrelated])
            with_self = client.query(Q.derived_from(chain[0], include_self=True))
            assert with_self.total == len(chain)
            limited = client.query(
                Q.find(Q.derived_from(chain[0])).order_by("sequence").limit(2)
            )
            assert [client.describe_record(p).get("sequence") for p in limited] == [1, 2]

    def test_probe_for_unknown_focus_matches_nothing(self, chainload):
        chain, unrelated = chainload
        ghost = _tuple_set(12345)  # never published
        with connect("memory://") as client:
            client.publish_many(chain)
            assert client.query(Q.derived_from(ghost)).total == 0
            assert client.query(Q.derived_from(ghost, include_self=True)).total == 0  # (no record, so not itself)
            explain = client.explain(Q.find(Q.derived_from(ghost)))
            assert explain.path_kind == "lineage-descendants"
            assert explain.actual_rows == 0
            with_self = client.explain(Q.find(Q.derived_from(ghost, include_self=True)))
            assert with_self.estimated_rows == with_self.actual_rows == 0


class TestDistributedExplain:
    @pytest.mark.parametrize("url", LINEAGE_MODEL_URLS)
    def test_models_report_a_lineage_access_path(self, url, chainload):
        chain, unrelated = chainload
        with connect(url) as client:
            client.publish_many(chain + [unrelated])
            explain = client.explain(Q.find(Q.derived_from(chain[0])))
            assert explain.path_kind == "distributed"
            assert _lineage_kinds(explain), f"{url} fell back to scans: {explain.format()}"
            assert explain.used_index
            assert explain.actual_rows == len(chain) - 1

    @pytest.mark.parametrize("url", LINEAGE_MODEL_URLS)
    def test_model_answers_match_local_truth(self, url, chainload):
        chain, unrelated = chainload
        question = Q.derived_from(chain[0]) & (Q.attr("city") == "london")
        with connect("memory://") as truth:
            truth.publish_many(chain + [unrelated])
            expected = truth.query(question).pname_set()
        with connect(url) as client:
            client.publish_many(chain + [unrelated])
            assert client.query(question).pname_set() == expected

    def test_soft_state_still_refuses_transitive_closure(self, chainload):
        chain, unrelated = chainload
        with connect("soft-state://") as client:
            client.publish_many(chain + [unrelated])
            with pytest.raises(UnsupportedQueryError):
                client.query(Q.derived_from(chain[0]))

    def test_dht_charges_the_routed_walk(self, chainload):
        """Lineage on the ring costs per-edge routed lookups, visibly."""
        chain, unrelated = chainload
        with connect("dht://") as client:
            client.publish_many(chain + [unrelated])
            plain = client.query(Q.attr("city") == "london")
            lineage = client.query(Q.derived_from(chain[0]))
            assert lineage.pname_set() == {ts.pname for ts in chain[1:]}
            assert lineage.cost.messages > plain.cost.messages


class TestLineagePagination:
    """Satellite: ancestors/descendants behave like query() pagination."""

    @pytest.mark.parametrize("url", ["memory://", "centralized://"])
    def test_deterministic_order_and_paging(self, url, chainload):
        chain, unrelated = chainload
        with connect(url) as client:
            client.publish_many(chain + [unrelated])
            full = client.descendants(chain[0])
            assert full.total == len(chain) - 1
            assert full.records == sorted(full.records, key=lambda p: p.digest)
            page = client.descendants(chain[0], limit=2, offset=1)
            assert page.records == full.records[1:3]
            assert page.total == full.total
            assert page.has_more
            # Same paging contract on the backward closure.
            ancestors_page = client.ancestors(chain[-1], limit=3)
            assert ancestors_page.total == len(chain) - 1
            assert len(ancestors_page) == 3

    def test_repeated_calls_are_stable(self, chainload):
        chain, unrelated = chainload
        with connect("memory://") as client:
            client.publish_many(chain + [unrelated])
            first = client.descendants(chain[0]).records
            for _ in range(3):
                assert client.descendants(chain[0]).records == first


    @pytest.mark.parametrize("url", ["memory://", "memory://?shards=2", "sqlite:///{}"])
    def test_an_include_self_probe_leaves_the_closure_alone(self, tmp_path, url, chainload):
        """The probe adds the focus to *its* candidates, never to the closure's labels."""
        chain, unrelated = chainload
        middle = chain[2]
        with connect(url.format(tmp_path / "pass.db")) as client:
            client.publish_many(chain + [unrelated])
            for _ in range(2):
                assert middle.pname in client.query(Q.derived_from(middle, include_self=True)).records
                assert middle.pname in client.query(Q.ancestor_of(middle, include_self=True)).records
                down = client.descendants(middle)
                assert (down.total, down.records) == (3, sorted(ts.pname for ts in chain[3:]))
                up = client.ancestors(middle)
                assert (up.total, up.records) == (2, sorted(ts.pname for ts in chain[:2]))


class TestDepthSatellite:
    """Satellite: deep chains no longer blow the recursion limit."""

    def test_depth_is_iterative_on_1500_deep_chains(self):
        from array import array

        from repro.core.graph import ProvenanceGraph

        depth = 1_500  # far beyond the default recursion limit
        names = [ProvenanceRecord({"i": i}).pname() for i in range(depth)]
        graph = ProvenanceGraph()
        # Bypass the O(depth) cycle check per edge: adopt the chain's
        # columns, as a backend rebuild of a known-acyclic graph would
        # (node i's one parent is node i - 1).
        graph.restore(
            {"counts": array("q", [0] + [1] * (depth - 1)), "parents": array("q", range(depth - 1))},
            [name.digest for name in names],
        )
        histogram = graph.ancestry_depth_distribution()
        assert histogram == {d: 1 for d in range(depth)}
