"""Unit tests for the interval/chain reachability index (repro.lineage)."""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core import ProvenanceRecord
from repro.core.closure import make_closure
from repro.errors import UnknownEntityError
from repro.index.sections import read_header
from repro.lineage import IntervalClosure
from repro.storage import SQLiteBackend
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

    def test_every_store_runs_interval(self):
        from repro.core.pass_store import PassStore

        assert type(PassStore().closure) is IntervalClosure


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


class TestDerivedLabelling:
    """The labelling is derived state: no checkpoint carries it, and the
    first lineage read after an open builds it from the graph."""

    @staticmethod
    def _chain(store, length=10):
        """Ingest a derivation chain of ``length`` records; the last one's name."""
        previous = None
        for i in range(length):
            record = ProvenanceRecord({"label": f"p{i}"}, ancestors=[previous] if previous else [])
            previous = store.ingest_record(record)
        return previous

    def test_a_reopened_store_builds_its_labelling_on_the_first_read(self, tmp_path):
        from repro.core.pass_store import PassStore

        store = PassStore(backend=SQLiteBackend(tmp_path / "pass.db"))
        last = self._chain(store)
        assert store.descendants(store.pnames()[0])  # force the build
        assert store.persist_index_checkpoint()
        assert not store.persist_index_checkpoint()  # nothing changed since
        store.backend.close()

        reopened = PassStore(backend=SQLiteBackend(tmp_path / "pass.db"))
        assert reopened.storage_snapshot()["index_restore"]["mode"] == "adopted"
        assert reopened.storage_snapshot()["closure_restore"]["mode"] == "none"
        assert reopened.closure.rebuilds == 0  # the open built nothing
        assert len(reopened.ancestors(last)) == 9
        assert reopened.closure.rebuilds == 1
        later = reopened.ingest_record(ProvenanceRecord({"label": "p10"}, ancestors=[last]))
        assert len(reopened.ancestors(later)) == 10  # merged into the built labels
        assert (reopened.closure.rebuilds, reopened.closure.incremental_merges) == (1, 1)
        reopened.backend.close()

    def test_a_memory_backend_carries_no_labelling_across_stores(self):
        """Like the indexes: a store over a backend with no record order checkpoints nothing."""
        from repro.core.pass_store import PassStore

        backend = MemoryBackend()
        store = PassStore(backend=backend)
        last = self._chain(store)
        assert store.descendants(store.pnames()[0])
        assert not store.persist_index_checkpoint()
        second = PassStore(backend=backend)
        assert second.storage_snapshot()["closure_restore"]["mode"] == "none"
        assert len(second.ancestors(last)) == 9
        assert second.closure.rebuilds == 1

    @pytest.mark.parametrize("read_first", [True, False], ids=["built", "unbuilt"])
    def test_the_labelling_is_not_written_into_the_checkpoint(self, tmp_path, read_first):
        from repro.core.pass_store import PassStore

        store = PassStore(backend=SQLiteBackend(tmp_path / "pass.db"))
        last = self._chain(store)
        if read_first:
            assert len(store.ancestors(last)) == 9  # the labelling is built now
        assert store.closure.index_stats()["built"] is read_first
        assert store.persist_index_checkpoint()
        store.backend.close()

        reopened = PassStore(backend=SQLiteBackend(tmp_path / "pass.db"))
        state = read_header(zlib.decompress(reopened.backend.get_index_blob("index:checkpoint")))[0]
        assert "closure" not in state
        assert reopened.storage_snapshot()["closure_restore"]["mode"] == "none"
        assert len(reopened.ancestors(last)) == 9
        reopened.backend.close()
