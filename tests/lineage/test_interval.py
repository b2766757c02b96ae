"""Unit tests for the interval/chain reachability index (repro.lineage)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core import ProvenanceRecord
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
    """The labelling as a section of the index checkpoint: nodes named by position."""

    def _chain_closure(self, depth=20):
        nodes = [_pname(f"c{i}") for i in range(depth)]
        edges = [(nodes[i + 1], nodes[i]) for i in range(depth - 1)]
        return _build(edges), nodes

    @staticmethod
    def _positions(closure):
        nodes = sorted(closure.graph.node_digests())
        return {digest: position for position, digest in enumerate(nodes)}, nodes

    def test_unbuilt_index_has_nothing_to_snapshot(self):
        """No query ever ran -> nothing worth persisting (next open rebuilds lazily)."""
        closure, _ = self._chain_closure()
        assert not closure.has_snapshot()
        assert closure.snapshot(self._positions(closure)[0]) is None

    def test_snapshot_round_trip(self):
        closure, nodes = self._chain_closure()
        closure.descendants(nodes[0])  # force the labelling to exist
        loner = _pname("loner")
        closure.add_node(loner)  # a node no edge reaches: unlabelled, listed empty
        position_of, digests = self._positions(closure)
        section = json.loads(json.dumps(closure.snapshot(position_of)))
        assert section["strategy"] == "interval"
        assert section["down"][position_of[loner.digest]] == []

        twin = IntervalClosure(closure.graph)
        twin.restore(section, digests)
        assert twin.rebuilds == 0  # restored, not rebuilt
        for node in [*nodes, loner]:
            assert twin.ancestors(node) == closure.ancestors(node)
            assert twin.descendants(node) == closure.descendants(node)
        assert twin.rebuilds == 0
        assert twin.snapshot(position_of) == section
        # edges after the restore merge into the adopted labels
        extra = _pname("extra")
        for twin_or_original in (twin, closure):
            twin_or_original.add_node(extra)
            twin_or_original.add_edge(extra, nodes[-1])
            twin_or_original.add_edge(nodes[0], loner)
        assert twin.ancestors(extra) == closure.ancestors(extra) == {*nodes, loner}
        assert (twin.rebuilds, twin.incremental_merges) == (0, 2)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda section: section["chains"][0].append(10_000),
            lambda section: section["chains"][0].append(-1),
            lambda section: section["chains"].append(section["chains"][0][:1]),
            lambda section: section["chains"].__setitem__(0, 7),
            lambda section: section["down"].pop(),
            lambda section: section["up"][0].append(0),
            lambda section: section["up"].__setitem__(0, [0, 99]),
            lambda section: section["down"].__setitem__(0, [-1, 0]),
            lambda section: section["down"].__setitem__(0, []),
            lambda section: section.pop("up"),
        ],
        ids=[
            "position past the nodes", "negative position", "node on two chains", "non-list chain",
            "label list missing", "odd label list", "label past its chain", "negative chain",
            "chained node unlabelled", "no up labels",
        ],
    )
    def test_restore_refuses_garbage(self, damage):
        closure, nodes = self._chain_closure()
        closure.descendants(nodes[0])
        position_of, digests = self._positions(closure)
        section = closure.snapshot(position_of)
        damage(section)
        twin = IntervalClosure(closure.graph)
        with pytest.raises((ValueError, TypeError, LookupError)):
            twin.restore(section, digests)
        assert not twin.has_snapshot()  # left as made: it builds on its first read
        assert twin.ancestors(nodes[-1]) == set(nodes[:-1])
        assert twin.rebuilds == 1

    def test_store_persists_and_restores_through_backend(self, tmp_path):
        from repro.core.pass_store import PassStore
        from repro.storage import SQLiteBackend

        store = PassStore(backend=SQLiteBackend(tmp_path / "pass.db"), closure="interval")
        previous = None
        for i in range(10):
            record = ProvenanceRecord(
                {"label": f"p{i}"}, ancestors=[previous] if previous else []
            )
            previous = store.ingest_record(record)
        assert store.descendants(store.pnames()[0])  # force the build
        assert store.persist_index_checkpoint()
        assert not store.persist_index_checkpoint()  # nothing changed since
        store.backend.close()

        reopened = PassStore(backend=SQLiteBackend(tmp_path / "pass.db"), closure="interval")
        assert reopened.storage_snapshot()["closure_restore"] == {"mode": "full", "reason": None}
        assert reopened.closure.rebuilds == 0  # adopted the section
        assert len(reopened.ancestors(previous)) == 9
        assert reopened.closure.rebuilds == 0
        reopened.backend.close()

    def test_a_memory_backend_carries_no_labelling_across_stores(self):
        """Like the indexes: a store over a backend with no record order checkpoints nothing."""
        from repro.core.pass_store import PassStore

        backend = MemoryBackend()
        store = PassStore(backend=backend, closure="interval")
        previous = None
        for i in range(10):
            record = ProvenanceRecord({"label": f"p{i}"}, ancestors=[previous] if previous else [])
            previous = store.ingest_record(record)
        assert store.descendants(store.pnames()[0])
        assert not store.persist_index_checkpoint()
        second = PassStore(backend=backend, closure="interval")
        assert second.storage_snapshot()["closure_restore"]["mode"] == "none"
        assert len(second.ancestors(previous)) == 9
        assert second.closure.rebuilds == 1

    def test_labelled_strategy_has_nothing_to_persist(self):
        closure = make_closure("labelled")
        closure.add_node(_pname("only"))
        assert not closure.has_snapshot()
        assert closure.snapshot({_pname("only").digest: 0}) is None
        with pytest.raises(ValueError):
            closure.restore({"strategy": "labelled"}, [_pname("only").digest])
