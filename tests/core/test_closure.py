"""Tests for the transitive-closure strategies (naive, memoized, labelled)."""

from __future__ import annotations

import pytest

from repro.core import ProvenanceGraph, ProvenanceRecord
from repro.core.closure import LabelledClosure, MemoizedClosure, NaiveClosure, make_closure
from repro.errors import UnknownEntityError

STRATEGIES = ["naive", "memoized", "labelled"]


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


class TestPendingLabels:
    """Labels over a populated graph wait for the first call that reads one."""

    def _over_a_chain(self, depth=4):
        nodes = [_pname(f"p{i}") for i in range(depth + 1)]
        graph = ProvenanceGraph()
        for child, parent in zip(nodes[1:], nodes):
            graph.add_edge(child, parent)
        return LabelledClosure(graph), nodes

    def test_a_closure_over_an_empty_graph_is_never_pending(self):
        closure = LabelledClosure()
        assert closure.index_stats()["labels"] == "built"
        a, b = _pname("a"), _pname("b")
        closure.add_node(a)
        closure.add_edge(b, a)
        facts = closure.index_stats()
        assert (facts["labels"], facts["label_builds"], facts["label_entries"]) == ("built", 0, 2)

    def test_writes_while_pending_reach_the_graph_only(self):
        closure, nodes = self._over_a_chain()
        late = _pname("late")
        closure.add_node(late)
        closure.add_edge(late, nodes[-1])
        assert late in closure.graph
        facts = closure.index_stats()  # never forces the build
        assert (facts["labels"], facts["label_builds"], facts["label_entries"]) == ("pending", 0, 0)
        assert closure.operations == 0

    @pytest.mark.parametrize(
        "read",
        ["ancestors", "descendants", "reachable", "estimate_ancestors", "estimate_descendants", "rebuild"],
    )
    def test_the_first_label_read_builds_once_and_the_second_builds_nothing(self, read):
        closure, nodes = self._over_a_chain()
        late = _pname("late")
        closure.add_edge(late, nodes[-1])  # written while pending: must be in the build
        argument = {"reachable": (nodes[0], late), "rebuild": ()}.get(read, (late,))
        getattr(closure, read)(*argument)
        assert closure.index_stats()["labels"] == "built"
        assert closure.label_builds == 1
        built = closure.operations
        assert closure.estimate_ancestors(late) == len(nodes)
        assert closure.estimate_descendants(nodes[0]) == len(nodes)
        assert closure.reachable(nodes[0], late)
        assert closure.ancestors(late) == set(nodes)
        assert closure.label_builds == 1
        assert closure.operations == built + 2  # two lookups, no propagation
        # and from here on maintenance is incremental
        later = _pname("later")
        closure.add_edge(later, late)
        assert closure.ancestors(later) == set(nodes) | {late}
        assert closure.label_builds == 1

    def test_lazy_and_edge_by_edge_labels_are_the_same_labels(self):
        lazy, nodes = self._over_a_chain(depth=9)
        eager = LabelledClosure()
        for child, parent in zip(nodes[1:], nodes):
            eager.add_edge(child, parent)
        lazy.rebuild()
        assert lazy.index_stats()["label_entries"] == eager.index_stats()["label_entries"]
        assert lazy._ancestor_labels == eager._ancestor_labels
        assert lazy._descendant_labels == eager._descendant_labels

    def test_rebuild_recomputes_labels_that_went_wrong(self):
        closure = _build("labelled", [(_pname("b"), _pname("a")), (_pname("c"), _pname("b"))])
        reference = NaiveClosure(closure.graph)
        closure._ancestor_labels[_pname("c").digest] = {_pname("c").digest}  # corrupted by hand
        assert closure.ancestors(_pname("c")) != reference.ancestors(_pname("c"))
        closure.rebuild()
        for node in closure.graph.nodes():
            assert closure.ancestors(node) == reference.ancestors(node)
            assert closure.descendants(node) == reference.descendants(node)
        assert closure.index_stats()["labels"] == "built"

    def test_the_build_is_logged_and_traced(self, caplog):
        from repro.obs import trace

        closure, nodes = self._over_a_chain()
        trace.enable()
        try:
            with caplog.at_level("INFO", logger="repro.core"):
                closure.ancestors(nodes[-1])
            names = [span.name for span in trace.drain()]
        finally:
            trace.disable()
        assert names.count("closure.build_labels") == 1
        messages = [record.getMessage() for record in caplog.records if record.name == "repro.core"]
        assert len(messages) == 1
        assert messages[0].startswith("closure labels built: nodes=5 label_entries=20 duration_ms=")
