"""Tests for the provenance DAG."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import ProvenanceGraph, ProvenanceRecord
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
        assert graph.parents(child.pname()) == [parent.pname()]

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
        with pytest.raises(UnknownEntityError):
            graph.parents(_pname("missing"))


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
        assert graph.children(child), "whatever closes a cycle already has a child"
        with pytest.raises(CycleError):
            graph.add_edge(child, parent)
        assert parent not in graph.parents(child)
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


class TestTraversal:
    def test_parents_and_children(self, diamond_graph):
        graph, names = diamond_graph
        assert set(graph.parents(names["merged"])) == {names["left"], names["right"]}
        assert set(graph.children(names["raw"])) == {names["left"], names["right"]}

    def test_ancestors_full(self, chain_graph):
        graph, names = chain_graph
        assert graph.ancestors(names["d"]) == {names["a"], names["b"], names["c"]}

    def test_ancestors_depth_limited(self, chain_graph):
        graph, names = chain_graph
        assert graph.ancestors(names["d"], max_depth=1) == {names["c"]}
        assert graph.ancestors(names["d"], max_depth=2) == {names["b"], names["c"]}

    def test_descendants(self, chain_graph):
        graph, names = chain_graph
        assert graph.descendants(names["a"]) == {names["b"], names["c"], names["d"]}

    def test_diamond_ancestors_deduplicated(self, diamond_graph):
        graph, names = diamond_graph
        assert graph.ancestors(names["merged"]) == {names["raw"], names["left"], names["right"]}

    def test_roots_and_leaves(self, diamond_graph):
        graph, names = diamond_graph
        assert graph.roots() == [names["raw"]] or set(graph.roots()) == {names["raw"]}
        assert set(graph.leaves()) == {names["merged"]}

    def test_raw_sources(self, diamond_graph):
        graph, names = diamond_graph
        assert graph.raw_sources(names["merged"]) == {names["raw"]}

    def test_raw_source_of_root_is_itself(self, diamond_graph):
        graph, names = diamond_graph
        assert graph.raw_sources(names["raw"]) == {names["raw"]}

    def test_is_ancestor(self, chain_graph):
        graph, names = chain_graph
        assert graph.is_ancestor(names["a"], of=names["d"])
        assert not graph.is_ancestor(names["d"], of=names["a"])

    def test_path_chain(self, chain_graph):
        graph, names = chain_graph
        path = graph.path(names["d"], names["a"])
        assert path[0] == names["d"]
        assert path[-1] == names["a"]
        assert len(path) == 4

    def test_path_missing(self, diamond_graph):
        graph, names = diamond_graph
        other = _pname("unrelated")
        graph.add_node(other)
        assert graph.path(names["merged"], other) is None

    def test_depth(self, chain_graph):
        graph, names = chain_graph
        assert graph.depth(names["a"]) == 0
        assert graph.depth(names["d"]) == 3

    def test_depth_distribution(self, chain_graph):
        graph, names = chain_graph
        assert graph.ancestry_depth_distribution() == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_topological_order(self, diamond_graph):
        graph, names = diamond_graph
        order = graph.topological_order()
        position = {pname.digest: index for index, pname in enumerate(order)}
        assert position[names["raw"].digest] < position[names["left"].digest]
        assert position[names["left"].digest] < position[names["merged"].digest]

    def test_subgraph_edges(self, diamond_graph):
        graph, names = diamond_graph
        edges = graph.subgraph_edges([names["merged"], names["left"]])
        assert (names["merged"], names["left"]) in edges
        assert len(edges) == 1

    def test_edge_count(self, diamond_graph):
        graph, _ = diamond_graph
        assert graph.edge_count() == 4


class TestRemoval:
    def test_removed_nodes_keep_edges(self, chain_graph):
        graph, names = chain_graph
        graph.mark_removed(names["a"])
        assert graph.is_removed(names["a"])
        assert graph.ancestors(names["d"]) == {names["a"], names["b"], names["c"]}

    def test_mark_removed_unknown_node(self):
        graph = ProvenanceGraph()
        with pytest.raises(UnknownEntityError):
            graph.mark_removed(_pname("missing"))
