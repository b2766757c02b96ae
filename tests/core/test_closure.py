"""Tests for the transitive-closure strategies (naive, memoized, labelled, interval)."""

from __future__ import annotations

import pytest

from repro.core import ProvenanceGraph, ProvenanceRecord
from repro.core.closure import (
    STRATEGY_NAMES,
    LabelledClosure,
    MemoizedClosure,
    NaiveClosure,
    make_closure,
)
from repro.errors import UnknownEntityError

STRATEGIES = list(STRATEGY_NAMES)


def _pname(label: str):
    return ProvenanceRecord({"label": label}).pname()


def _build(strategy_name, edges):
    closure = make_closure(strategy_name)
    nodes = set()
    for child, parent in edges:
        nodes.add(child)
        nodes.add(parent)
    for node in sorted(nodes, key=lambda p: p.digest):
        closure.add_node(node)
    for child, parent in edges:
        closure.add_edge(child, parent)
    return closure


@pytest.fixture
def names():
    return {label: _pname(label) for label in ("raw1", "raw2", "mid", "top", "side")}


@pytest.fixture
def edges(names):
    """raw1,raw2 -> mid -> top, plus side -> raw1."""
    return [
        (names["mid"], names["raw1"]),
        (names["mid"], names["raw2"]),
        (names["top"], names["mid"]),
        (names["side"], names["raw1"]),
    ]


class TestFactory:
    def test_make_closure_known_names(self):
        assert isinstance(make_closure("naive"), NaiveClosure)
        assert isinstance(make_closure("memoized"), MemoizedClosure)
        assert isinstance(make_closure("labelled"), LabelledClosure)

    def test_make_closure_unknown_name(self):
        with pytest.raises(UnknownEntityError):
            make_closure("btree")

    def test_an_unknown_name_is_refused_with_every_choice_named(self):
        with pytest.raises(UnknownEntityError) as refused:
            make_closure("btree")
        for name in STRATEGY_NAMES:
            assert repr(name) in str(refused.value)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_a_strategy_made_by_name_answers_over_the_graph_it_was_given(self, strategy, names, edges):
        graph = ProvenanceGraph()
        for child, parent in edges:
            graph.add_edge(child, parent)
        closure = make_closure(strategy, graph)
        assert closure.name == strategy
        assert closure.graph is graph
        assert closure.ancestors(names["top"]) == {names["mid"], names["raw1"], names["raw2"]}
        assert closure.descendants(names["raw1"]) == {names["mid"], names["top"], names["side"]}


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestClosureCorrectness:
    def test_ancestors(self, strategy, names, edges):
        closure = _build(strategy, edges)
        assert closure.ancestors(names["top"]) == {names["mid"], names["raw1"], names["raw2"]}

    def test_descendants(self, strategy, names, edges):
        closure = _build(strategy, edges)
        assert closure.descendants(names["raw1"]) == {names["mid"], names["top"], names["side"]}

    def test_reachable(self, strategy, names, edges):
        closure = _build(strategy, edges)
        assert closure.reachable(names["raw1"], names["top"])
        assert not closure.reachable(names["top"], names["raw1"])
        assert not closure.reachable(names["side"], names["top"])

    def test_roots_have_no_ancestors(self, strategy, names, edges):
        closure = _build(strategy, edges)
        assert closure.ancestors(names["raw2"]) == set()

    def test_unknown_node_raises(self, strategy, names, edges):
        closure = _build(strategy, edges)
        with pytest.raises(UnknownEntityError):
            closure.ancestors(_pname("missing"))

    def test_incremental_edge_updates_results(self, strategy, names, edges):
        closure = _build(strategy, edges)
        late = _pname("late")
        closure.add_node(late)
        closure.add_edge(late, names["top"])
        assert names["raw1"] in closure.ancestors(late)
        assert late in closure.descendants(names["raw1"])

    def test_strategies_agree_on_random_dag(self, strategy, names, edges):
        import random

        rng = random.Random(7)
        nodes = [_pname(f"n{i}") for i in range(30)]
        dag_edges = []
        for index in range(1, len(nodes)):
            for parent_index in rng.sample(range(index), k=min(index, 2)):
                dag_edges.append((nodes[index], nodes[parent_index]))
        subject = _build(strategy, dag_edges)
        reference = _build("naive", dag_edges)
        for node in nodes:
            assert subject.ancestors(node) == reference.ancestors(node)
            assert subject.descendants(node) == reference.descendants(node)


class TestCostProfiles:
    def _chain(self, strategy_name, depth):
        nodes = [_pname(f"c{i}") for i in range(depth + 1)]
        edges = [(nodes[i + 1], nodes[i]) for i in range(depth)]
        return _build(strategy_name, edges), nodes

    def test_naive_cost_grows_with_repeated_queries(self):
        closure, nodes = self._chain("naive", 30)
        closure.reset_counters()
        closure.ancestors(nodes[-1])
        single = closure.operations
        closure.ancestors(nodes[-1])
        assert closure.operations == pytest.approx(2 * single)

    def test_memoized_second_query_is_cheap(self):
        closure, nodes = self._chain("memoized", 30)
        closure.reset_counters()
        closure.ancestors(nodes[-1])
        first = closure.operations
        closure.ancestors(nodes[-1])
        assert closure.operations - first <= 2

    def test_memoized_cache_invalidated_by_new_edge(self):
        closure, nodes = self._chain("memoized", 10)
        closure.ancestors(nodes[-1])
        extra = _pname("extra-root")
        closure.add_node(extra)
        closure.add_edge(nodes[0], extra)
        assert extra in closure.ancestors(nodes[-1])

    def test_a_walk_counts_each_node_it_visits_once(self, names, edges):
        closure = _build("naive", edges)
        closure.reset_counters()
        closure.ancestors(names["top"])  # top, mid, raw1, raw2
        assert closure.operations == 4
        closure.descendants(names["raw1"])  # raw1, mid, side, top
        assert closure.operations == 8
        closure.ancestors(names["raw2"])  # a root visits only itself
        assert closure.operations == 9

    def test_memoized_hit_counts_one_operation(self):
        closure, nodes = self._chain("memoized", 12)
        closure.reset_counters()
        closure.ancestors(nodes[-1])
        assert closure.operations == 13
        closure.ancestors(nodes[-1])
        assert closure.operations == 14

    def test_memoized_new_edge_keeps_entries_it_cannot_change(self):
        closure, nodes = self._chain("memoized", 5)
        other = [_pname(f"other{i}") for i in range(3)]
        for node in other:
            closure.add_node(node)
        closure.add_edge(other[1], other[0])
        closure.add_edge(other[2], other[1])
        closure.ancestors(nodes[-1])
        closure.ancestors(other[-1])
        closure.descendants(nodes[0])
        extra = _pname("extra-leaf")
        closure.add_node(extra)
        closure.add_edge(extra, nodes[2])
        closure.reset_counters()
        assert closure.ancestors(other[-1]) == {other[0], other[1]}
        assert closure.ancestors(nodes[-1]) == set(nodes[:-1])
        assert closure.operations == 2  # neither ancestor set was dropped
        assert extra in closure.descendants(nodes[0])
        assert closure.operations > 3  # the root's descendant set was

    def test_labelled_query_cost_constant_in_depth(self):
        shallow, shallow_nodes = self._chain("labelled", 5)
        deep, deep_nodes = self._chain("labelled", 60)
        shallow.reset_counters()
        shallow.ancestors(shallow_nodes[-1])
        deep.reset_counters()
        deep.ancestors(deep_nodes[-1])
        assert deep.operations == shallow.operations == 1

    def test_labelled_prebuilt_graph(self):
        graph = ProvenanceGraph()
        a, b, c = _pname("a"), _pname("b"), _pname("c")
        graph.add_edge(b, a)
        graph.add_edge(c, b)
        closure = LabelledClosure(graph)
        assert closure.ancestors(c) == {a, b}
        assert closure.descendants(a) == {b, c}


class TestBulkBuiltLabels:
    """Labels over a populated graph are built in one bulk pass."""

    def _chain_graph(self, depth=4):
        nodes = [_pname(f"p{i}") for i in range(depth + 1)]
        graph = ProvenanceGraph()
        for child, parent in zip(nodes[1:], nodes):
            graph.add_edge(child, parent)
        return graph, nodes

    def test_bulk_and_edge_by_edge_labels_are_the_same_labels(self):
        graph, nodes = self._chain_graph(depth=9)
        bulk = LabelledClosure(graph)
        eager = LabelledClosure()
        for child, parent in zip(nodes[1:], nodes):
            eager.add_edge(child, parent)
        assert bulk._label_entries() == eager._label_entries()
        assert bulk._ancestor_labels == eager._ancestor_labels
        assert bulk._descendant_labels == eager._descendant_labels

    def test_a_closure_made_over_an_empty_graph_keeps_its_labels_edge_by_edge(self):
        closure = LabelledClosure()
        a, b, c = _pname("a"), _pname("b"), _pname("c")
        closure.add_node(a)
        assert closure._label_entries() == 0  # a node is not in its own labels
        closure.add_edge(b, a)
        closure.add_edge(c, b)
        assert closure._label_entries() == 6  # {a}, {a, b} up; {b, c}, {c} down
        closure.reset_counters()
        assert closure.ancestors(c) == {a, b}
        assert closure.operations == 1  # a lookup, no propagation

    @pytest.mark.parametrize(
        "strategy, read",
        [("labelled", read) for read in ("ancestors", "descendants", "reachable")]
        + [
            ("interval", read)
            for read in (
                "ancestors", "descendants", "reachable", "estimate_ancestors", "estimate_descendants", "rebuild",
            )
        ],
    )
    def test_the_first_label_read_builds_once_and_the_second_builds_nothing(self, strategy, read):
        """``labelled`` builds when made over a populated graph, ``interval`` on its
        first read; either way one bulk build, then edge-by-edge maintenance."""
        graph, nodes = self._chain_graph()
        closure = make_closure(strategy, graph)
        builds = []
        bulk = closure._label_every_node
        closure._label_every_node = lambda: builds.append(bulk())
        late = _pname("late")
        closure.add_edge(late, nodes[-1])
        argument = {"reachable": (nodes[0], late), "rebuild": ()}.get(read, (late,))
        getattr(closure, read)(*argument)
        assert len(builds) == (strategy == "interval")  # ``labelled`` built when made
        assert closure.ancestors(late) == set(nodes)
        assert closure.descendants(nodes[0]) == set(nodes[1:]) | {late}
        assert closure.reachable(nodes[0], late)
        if strategy == "interval":
            assert closure.estimate_ancestors(late) == len(nodes)
            assert closure.estimate_descendants(nodes[0]) == len(nodes)
            assert closure.index_stats()["rebuilds"] == 1
        later = _pname("later")
        closure.add_edge(later, late)
        assert closure.ancestors(later) == set(nodes) | {late}
        assert len(builds) == (strategy == "interval")

    def test_writes_before_the_first_interval_read_are_only_queued(self):
        graph, nodes = self._chain_graph()
        closure = make_closure("interval", graph)
        late = _pname("late")
        closure.add_node(late)
        closure.add_edge(late, nodes[-1])
        assert late in closure.graph
        facts = closure.index_stats()  # never forces the build
        assert (facts["built"], facts["dirty_edges"], facts["rebuilds"], facts["label_entries"]) == (False, 1, 0, 0)
        assert closure.operations == 0

    def test_an_interval_rebuild_recomputes_labels_that_went_wrong(self):
        closure = _build("interval", [(_pname("b"), _pname("a")), (_pname("c"), _pname("b"))])
        reference = NaiveClosure(closure.graph)
        assert closure.ancestors(_pname("c")) == reference.ancestors(_pname("c"))
        closure._up[_pname("c").digest] = {}  # corrupted by hand
        assert closure.ancestors(_pname("c")) != reference.ancestors(_pname("c"))
        closure.rebuild()
        for node in map(closure.graph.name_of, closure.graph.node_digests()):
            assert closure.ancestors(node) == reference.ancestors(node)
            assert closure.descendants(node) == reference.descendants(node)
        assert closure.index_stats()["rebuilds"] == 2

    @pytest.mark.parametrize("strategy, entries", [("labelled", 20), ("interval", 10)])
    def test_the_build_is_logged_and_traced(self, caplog, strategy, entries):
        """Every strategy's bulk build (``labelled``'s when made, ``interval``'s
        on its first read): one span, one INFO record."""
        from repro.obs import trace

        graph, nodes = self._chain_graph()
        trace.enable()
        try:
            with caplog.at_level("INFO", logger="repro.core"):
                make_closure(strategy, graph).ancestors(nodes[-1])
            names = [span.name for span in trace.drain()]
        finally:
            trace.disable()
        assert names.count("closure.build_labels") == 1
        messages = [record.getMessage() for record in caplog.records if record.name == "repro.core"]
        assert len(messages) == 1
        assert messages[0].startswith(f"closure labels built: nodes=5 label_entries={entries} duration_ms=")
