"""Unit tests for the interval/chain reachability index (repro.lineage)."""

from __future__ import annotations

import random

import pytest

from repro.core import ProvenanceGraph, ProvenanceRecord
from repro.core.closure import make_closure
from repro.errors import UnknownEntityError
from repro.lineage import IntervalClosure
from repro.storage.memory import MemoryBackend


def _pname(label: str):
    return ProvenanceRecord({"label": label}).pname()


def _build(edges):
    closure = make_closure("interval")
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
def diamond():
    """raw -> left/right -> top (a reconvergent diamond)."""
    names = {label: _pname(label) for label in ("raw", "left", "right", "top")}
    edges = [
        (names["left"], names["raw"]),
        (names["right"], names["raw"]),
        (names["top"], names["left"]),
        (names["top"], names["right"]),
    ]
    return names, edges


class TestFactoryAndRegistry:
    def test_registered_as_interval(self):
        assert isinstance(make_closure("interval"), IntervalClosure)

    def test_store_accepts_interval_by_name(self):
        from repro.core.pass_store import PassStore

        assert PassStore(closure="interval").closure.name == "interval"


class TestCorrectness:
    def test_diamond_closure(self, diamond):
        names, edges = diamond
        closure = _build(edges)
        assert closure.ancestors(names["top"]) == {names["raw"], names["left"], names["right"]}
        assert closure.descendants(names["raw"]) == {names["left"], names["right"], names["top"]}
        assert closure.reachable(names["raw"], names["top"])
        assert not closure.reachable(names["top"], names["raw"])
        assert not closure.reachable(names["left"], names["right"])

    def test_self_is_never_its_own_ancestor(self, diamond):
        names, edges = diamond
        closure = _build(edges)
        assert not closure.reachable(names["raw"], names["raw"])
        assert names["raw"] not in closure.ancestors(names["raw"])

    def test_unknown_node_raises(self, diamond):
        _, edges = diamond
        closure = _build(edges)
        with pytest.raises(UnknownEntityError):
            closure.ancestors(_pname("missing"))
        with pytest.raises(UnknownEntityError):
            closure.reachable(_pname("missing"), edges[0][0])

    def test_isolated_node_has_empty_closure(self):
        closure = make_closure("interval")
        lonely = _pname("lonely")
        closure.add_node(lonely)
        assert closure.ancestors(lonely) == set()
        assert closure.descendants(lonely) == set()

    def test_incremental_edges_after_first_query(self, diamond):
        """Queries between insertions exercise the dirty-set merge path."""
        names, edges = diamond
        closure = _build(edges)
        assert closure.descendants(names["raw"])  # forces the initial build
        assert closure.rebuilds == 1
        late = _pname("late")
        closure.add_node(late)
        closure.add_edge(late, names["top"])
        # Small dirty batch: merged incrementally, not rebuilt.
        assert names["raw"] in closure.ancestors(late)
        assert late in closure.descendants(names["raw"])
        assert closure.rebuilds == 1
        assert closure.incremental_merges >= 1

    def test_matches_naive_on_random_dag_with_interleaved_queries(self):
        rng = random.Random(11)
        nodes = [_pname(f"n{i}") for i in range(40)]
        edges = []
        for index in range(1, len(nodes)):
            for parent_index in rng.sample(range(index), k=min(index, 2)):
                edges.append((nodes[index], nodes[parent_index]))
        subject = make_closure("interval")
        reference = make_closure("naive")
        for node in nodes:
            subject.add_node(node)
            reference.add_node(node)
        for count, (child, parent) in enumerate(edges):
            subject.add_edge(child, parent)
            reference.add_edge(child, parent)
            if count % 7 == 0:  # query mid-stream: dirty merges, not rebuilds
                assert subject.ancestors(child) == reference.ancestors(child)
        for node in nodes:
            assert subject.ancestors(node) == reference.ancestors(node)
            assert subject.descendants(node) == reference.descendants(node)

    def test_labels_stay_linear_on_derivation_chains(self):
        """Compressed labelling: a node's maps name the chains it touches,
        not the nodes it reaches, so 10 chains of 100 derivations hold
        <= 4 entries per node where materialised sets would hold ~100."""
        chains = [[_pname(f"c{chain}-{step}") for step in range(100)] for chain in range(10)]
        closure = _build([(child, parent) for chain in chains for parent, child in zip(chain, chain[1:])])
        assert closure.descendants(chains[0][0]) == set(chains[0][1:])
        stats = closure.index_stats()
        assert stats["chains"] == 10
        assert stats["label_entries"] <= 4 * 1000

    def test_operations_counter_is_monotone(self, diamond):
        names, edges = diamond
        closure = _build(edges)
        seen = closure.operations
        for _ in range(3):
            closure.ancestors(names["top"])
            closure.descendants(names["raw"])
            closure.reachable(names["raw"], names["top"])
            assert closure.operations >= seen
            seen = closure.operations


class TestEstimates:
    def test_estimates_are_exact(self, diamond):
        names, edges = diamond
        closure = _build(edges)
        for node in names.values():
            assert closure.estimate_ancestors(node) == len(closure.ancestors(node))
            assert closure.estimate_descendants(node) == len(closure.descendants(node))


class TestPersistence:
    def _chain_closure(self, depth=20):
        nodes = [_pname(f"c{i}") for i in range(depth)]
        edges = [(nodes[i + 1], nodes[i]) for i in range(depth - 1)]
        return _build(edges), nodes

    def test_unbuilt_index_has_nothing_to_snapshot(self):
        """No query ever ran -> nothing worth persisting (next open rebuilds lazily)."""
        closure, _ = self._chain_closure()
        assert closure.snapshot(closure.graph.fingerprint()) is None

    def test_snapshot_round_trip(self):
        closure, nodes = self._chain_closure()
        closure.descendants(nodes[0])  # force the labelling to exist
        fingerprint = closure.graph.fingerprint()
        state = closure.snapshot(fingerprint)
        assert state is not None

        twin = IntervalClosure(closure.graph)
        assert twin.restore(state, fingerprint)
        assert twin.rebuilds == 0  # restored, not rebuilt
        assert twin.ancestors(nodes[-1]) == closure.ancestors(nodes[-1])
        assert twin.descendants(nodes[0]) == closure.descendants(nodes[0])
        assert twin.rebuilds == 0

    def test_restore_refuses_stale_fingerprint(self):
        closure, nodes = self._chain_closure()
        closure.descendants(nodes[0])  # force the labelling to exist
        state = closure.snapshot(closure.graph.fingerprint())
        grown = ProvenanceGraph()
        for child, parent in [(nodes[i + 1], nodes[i]) for i in range(len(nodes) - 1)]:
            grown.add_edge(child, parent)
        extra = _pname("extra")
        grown.add_edge(extra, nodes[-1])
        stale = IntervalClosure(grown)
        assert not stale.restore(state, grown.fingerprint())
        # The rebuild fallback still answers correctly.
        assert nodes[0] in stale.ancestors(extra)

    def test_restore_refuses_garbage(self):
        closure, _ = self._chain_closure()
        fingerprint = closure.graph.fingerprint()
        assert not closure.restore({}, fingerprint)
        assert not closure.restore({"format": 999}, fingerprint)
        assert not closure.restore({"format": 1, "strategy": "labelled"}, fingerprint)

    def test_store_persists_and_restores_through_backend(self):
        from repro.core.pass_store import PassStore

        backend = MemoryBackend()
        store = PassStore(backend=backend, closure="interval")
        previous = None
        for i in range(10):
            record = ProvenanceRecord(
                {"label": f"p{i}"}, ancestors=[previous] if previous else []
            )
            previous = store.ingest_record(record)
        assert store.descendants(store.pnames()[0])  # force the build
        assert store.persist_closure_index()

        reopened = PassStore(backend=backend, closure="interval")
        assert reopened.closure.rebuilds == 0  # adopted the snapshot
        assert len(reopened.ancestors(previous)) == 9
        assert reopened.closure.rebuilds == 0

    def test_labelled_strategy_has_nothing_to_persist(self):
        from repro.core.pass_store import PassStore

        store = PassStore(closure="labelled")
        store.ingest_record(ProvenanceRecord({"label": "only"}))
        assert not store.persist_closure_index()
