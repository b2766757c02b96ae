"""Tests for the provenance DAG."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import PName, ProvenanceGraph, ProvenanceRecord
from repro.errors import CycleError, UnknownEntityError


def _pname(label: str):
    return ProvenanceRecord({"label": label}).pname()


@pytest.fixture
def chain_graph():
    """a <- b <- c <- d (each derived from the previous)."""
    graph = ProvenanceGraph()
    names = {label: _pname(label) for label in "abcd"}
    graph.add_edge(names["b"], names["a"])
    graph.add_edge(names["c"], names["b"])
    graph.add_edge(names["d"], names["c"])
    return graph, names


@pytest.fixture
def diamond_graph():
    """raw -> left/right -> merged (fan-out then fan-in)."""
    graph = ProvenanceGraph()
    names = {label: _pname(label) for label in ("raw", "left", "right", "merged")}
    graph.add_edge(names["left"], names["raw"])
    graph.add_edge(names["right"], names["raw"])
    graph.add_edge(names["merged"], names["left"])
    graph.add_edge(names["merged"], names["right"])
    return graph, names


class TestConstruction:
    def test_add_node_idempotent(self):
        graph = ProvenanceGraph()
        node = _pname("x")
        graph.add_node(node)
        graph.add_node(node)
        assert len(graph) == 1

    def test_add_record_creates_edges(self):
        graph = ProvenanceGraph()
        parent = ProvenanceRecord({"label": "parent"})
        child = parent.derive({"label": "child"})
        graph.add_record(child)
        assert parent.pname() in graph
        assert graph.parents_of(child.pname().digest) == (parent.pname().digest,)

    def test_self_edge_rejected(self):
        graph = ProvenanceGraph()
        node = _pname("x")
        with pytest.raises(CycleError):
            graph.add_edge(node, node)

    def test_cycle_rejected(self, chain_graph):
        graph, names = chain_graph
        with pytest.raises(CycleError):
            graph.add_edge(names["a"], names["d"])

    def test_unknown_node_queries_raise(self):
        graph = ProvenanceGraph()
        missing = _pname("missing")
        with pytest.raises(UnknownEntityError):
            graph.name_of(missing.digest)
        graph.add_node(missing)
        assert graph.name_of(missing.digest) == missing

    def test_an_unknown_digest_has_no_edges_and_no_name(self):
        graph = ProvenanceGraph()
        missing = _pname("missing").digest
        assert graph.parents_of(missing) == graph.children_of(missing) == ()
        assert graph.walk(missing, up=True) == graph.walk(missing, up=False) == set()
        with pytest.raises(UnknownEntityError):
            graph.name_of(missing)


def _cycle_edges(length: int):
    """``(child, parent)`` edges n1->n0, n2->n1, ... closed by n0->n(length-1)."""
    names = [_pname(f"n{index}") for index in range(length)]
    return [(names[(index + 1) % length], names[index]) for index in range(length)]


def _count_reaches(graph: ProvenanceGraph, monkeypatch) -> list:
    """Every ``_reaches`` call on ``graph`` from here on, as ``(start, target)``."""
    calls = []
    walk = graph._reaches

    def counted(start, target, adjacency):
        calls.append((start, target))
        return walk(start, target, adjacency)

    monkeypatch.setattr(graph, "_reaches", counted)
    return calls


class TestCycleCheck:
    """The walk is skipped for a set nothing derives from, and only for that."""

    @staticmethod
    def _assert_only_the_closing_edge_is_refused(order):
        graph = ProvenanceGraph()
        for child, parent in order[:-1]:
            graph.add_edge(child, parent)
        child, parent = order[-1]
        assert graph.children_of(child.digest), "whatever closes a cycle already has a child"
        with pytest.raises(CycleError):
            graph.add_edge(child, parent)
        assert parent.digest not in graph.parents_of(child.digest)
        assert len(graph.topological_order()) == len(order)

    def test_every_insertion_order_of_a_3_cycle_is_refused(self):
        for order in itertools.permutations(_cycle_edges(3)):
            self._assert_only_the_closing_edge_is_refused(order)

    def test_a_long_chain_closed_at_its_root_is_refused_in_any_order(self):
        edges = _cycle_edges(40)
        shuffler = random.Random(24)
        orders = [list(edges), list(reversed(edges))]
        for _ in range(20):
            orders.append(shuffler.sample(edges, len(edges)))
        for order in orders:
            self._assert_only_the_closing_edge_is_refused(order)

    def test_a_fresh_leaf_is_not_walked_for(self, monkeypatch):
        graph = ProvenanceGraph()
        calls = _count_reaches(graph, monkeypatch)
        a, b, c, d = (_pname(label) for label in "abcd")
        graph.add_edge(b, a)  # both new
        graph.add_edge(c, b)  # a new child of a known parent
        graph.add_edge(c, a)  # a second parent for a set still nothing derives from
        assert calls == []
        # a's record arrives after its descendants': a has children, so the walk runs
        graph.add_edge(a, d)
        assert calls == [(d.digest, a.digest)]
        with pytest.raises(CycleError):
            graph.add_edge(a, c)
        assert len(calls) == 2

    def test_a_store_walks_only_for_a_late_ancestor(self, monkeypatch):
        from repro.core import PassStore, TupleSet

        store = PassStore()
        calls = _count_reaches(store.graph, monkeypatch)
        root = ProvenanceRecord({"label": "root"})
        middle = root.derive({"label": "middle"})
        leaf = middle.derive({"label": "leaf"})
        store.ingest(TupleSet([], root))
        store.ingest(TupleSet([], leaf))  # names middle as its parent before middle is stored
        assert calls == []
        store.ingest(TupleSet([], middle))  # leaf derives from it already: one edge, one walk
        assert calls == [(root.pname().digest, middle.pname().digest)]
        assert store.ancestors(leaf.pname()) == {root.pname(), middle.pname()}


def _digests(names, *labels):
    return {names[label].digest for label in labels}


class TestTraversal:
    def test_parents_and_children(self, diamond_graph):
        graph, names = diamond_graph
        assert set(graph.parents_of(names["merged"].digest)) == _digests(names, "left", "right")
        assert set(graph.children_of(names["raw"].digest)) == _digests(names, "left", "right")

    def test_ancestors_full(self, chain_graph):
        graph, names = chain_graph
        assert graph.walk(names["d"].digest, up=True) == _digests(names, "a", "b", "c")

    def test_descendants(self, chain_graph):
        graph, names = chain_graph
        assert graph.walk(names["a"].digest, up=False) == _digests(names, "b", "c", "d")

    def test_diamond_ancestors_deduplicated(self, diamond_graph):
        graph, names = diamond_graph
        assert graph.walk(names["merged"].digest, up=True) == _digests(names, "raw", "left", "right")

    def test_roots_and_leaves(self, diamond_graph):
        graph, names = diamond_graph
        roots = {d for d in graph.node_digests() if not graph.parents_of(d)}
        leaves = {d for d in graph.node_digests() if not graph.children_of(d)}
        assert roots == _digests(names, "raw")
        assert leaves == _digests(names, "merged")

    def test_is_ancestor(self, chain_graph):
        graph, names = chain_graph
        assert names["a"].digest in graph.walk(names["d"].digest, up=True)
        assert names["d"].digest not in graph.walk(names["a"].digest, up=True)
        assert graph.path(names["a"].digest, names["d"].digest) is None

    def test_raw_sources(self, diamond_graph):
        graph, names = diamond_graph
        assert graph.raw_sources(names["merged"].digest) == _digests(names, "raw")

    def test_raw_source_of_root_is_itself(self, diamond_graph):
        graph, names = diamond_graph
        assert graph.raw_sources(names["raw"].digest) == _digests(names, "raw")

    def test_path_chain(self, chain_graph):
        graph, names = chain_graph
        path = graph.path(names["d"].digest, names["a"].digest)
        assert path == [names[label].digest for label in "dcba"]

    def test_raw_sources_of_a_node_with_two_roots(self, diamond_graph):
        graph, names = diamond_graph
        second = _pname("second-raw")
        graph.add_edge(names["right"], second)
        assert graph.raw_sources(names["merged"].digest) == {names["raw"].digest, second.digest}
        assert graph.raw_sources(names["left"].digest) == _digests(names, "raw")

    def test_path_to_itself_is_the_node_alone(self, chain_graph):
        graph, names = chain_graph
        assert graph.path(names["c"].digest, names["c"].digest) == [names["c"].digest]

    def test_path_missing(self, diamond_graph):
        graph, names = diamond_graph
        other = _pname("unrelated")
        graph.add_node(other)
        assert graph.path(names["merged"].digest, other.digest) is None

    def test_depth_distribution(self, chain_graph):
        graph, names = chain_graph
        assert graph.ancestry_depth_distribution() == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_depth(self, chain_graph):
        graph, names = chain_graph
        assert graph.shape()["max_depth"] == 3
        graph.add_edge(_pname("e"), names["a"])  # a second node one step below the root
        assert graph.shape()["max_depth"] == 3
        assert graph.ancestry_depth_distribution() == {0: 1, 1: 2, 2: 1, 3: 1}

    def test_topological_order_of_an_empty_graph_is_empty(self):
        assert ProvenanceGraph().topological_order() == []

    def test_topological_order_is_the_same_however_the_graph_was_built(self, diamond_graph):
        graph, names = diamond_graph
        rebuilt = ProvenanceGraph()
        rebuilt.add_edge(names["merged"], names["right"])
        rebuilt.add_edge(names["merged"], names["left"])
        rebuilt.add_edge(names["right"], names["raw"])
        rebuilt.add_edge(names["left"], names["raw"])
        assert rebuilt.topological_order() == graph.topological_order()

    def test_topological_order(self, diamond_graph):
        graph, names = diamond_graph
        order = graph.topological_order()
        assert sorted(order) == sorted(graph.node_digests())
        position = {digest: index for index, digest in enumerate(order)}
        assert position[names["raw"].digest] < position[names["left"].digest]
        assert position[names["left"].digest] < position[names["merged"].digest]
        # ties broken by digest: the two middle nodes in digest order
        assert order[1:3] == sorted(_digests(names, "left", "right"))

    def test_edge_count(self, diamond_graph):
        graph, _ = diamond_graph
        assert graph.edge_count() == 4


class TestRemoval:
    def test_removed_nodes_keep_edges(self, chain_graph):
        graph, names = chain_graph
        graph.mark_removed(names["a"])
        assert graph.is_removed(names["a"])
        assert graph.walk(names["d"].digest, up=True) == _digests(names, "a", "b", "c")

    def test_mark_removed_unknown_node(self):
        graph = ProvenanceGraph()
        with pytest.raises(UnknownEntityError):
            graph.mark_removed(_pname("missing"))


class TestNameTable:
    """``name_of``: one PName per node, made at its first hand-out."""

    def test_a_node_is_handed_out_as_one_object_equal_to_a_fresh_pname(self, diamond_graph):
        graph, names = diamond_graph
        digest = names["left"].digest
        name = graph.name_of(digest)
        assert graph.name_of(digest) is name
        fresh = PName(digest)
        assert name is not fresh
        assert name == fresh and hash(name) == hash(fresh) and repr(name) == repr(fresh)
        ordered = sorted(map(graph.name_of, graph.node_digests()))
        assert ordered == sorted(PName(d) for d in graph.node_digests())

    def test_a_digest_that_is_no_node_raises_and_is_not_kept(self, chain_graph):
        graph, _ = chain_graph
        missing = _pname("missing").digest
        for _ in range(2):
            with pytest.raises(UnknownEntityError):
                graph.name_of(missing)
        assert missing not in graph._names

    def test_nothing_on_the_write_path_fills_the_table(self, chain_graph):
        graph, names = chain_graph
        graph.add_record(ProvenanceRecord({"label": "e"}, ancestors=(names["d"],)))
        graph.mark_removed(names["a"])
        assert graph._names == {}
        assert graph.name_of(names["a"].digest) == names["a"]  # a removed node is still named
        assert list(graph._names) == [names["a"].digest]

    def test_restore_leaves_the_table_empty(self, diamond_graph):
        graph, _ = diamond_graph
        digests = sorted(graph.node_digests())
        for digest in digests:
            graph.name_of(digest)
        restored = ProvenanceGraph()
        restored.restore(graph.snapshot({digest: at for at, digest in enumerate(digests)}), digests)
        assert len(restored) == len(graph)
        assert restored._names == {}
        assert restored.name_of(digests[0]) is not graph.name_of(digests[0])
