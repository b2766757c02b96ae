"""Property: every closure strategy agrees with a fresh-BFS oracle.

Hypothesis generates random DAGs *and* random edge-insertion orders
(optionally with queries interleaved mid-insertion, which drives the
interval index through its incremental dirty-set path), then checks all
four strategies -- naive, memoized, labelled, interval -- against an
independent BFS over the final edge list for ancestors, descendants and
pairwise reachability.  The ``operations`` counters must additionally
stay monotone: they are what experiment E3 reports, and a counter that
runs backwards would corrupt every comparison built on it.

The comparison is made where the strategies answer: at the digest-level
enumeration (``ancestor_digests`` / ``descendant_digests``), and as a
*multiset* -- ``client.ancestors(...).total`` is the ``len()`` of it, so
a digest listed twice or the focus listed at all is a wrong answer, not
a harmless one.  ``ancestors()`` / ``descendants()`` must be exactly the
wrap of that.  Example counts come from the active Hypothesis profile
(CI runs this file again under ``--hypothesis-profile=thorough``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closure import make_closure
from repro.core.graph import ProvenanceGraph
from repro.core.provenance import PName, ProvenanceRecord

STRATEGIES = ("naive", "memoized", "labelled", "interval")

#: a modest pool keeps example graphs readable while still producing
#: chains, diamonds, forests and reconvergence
_MAX_NODES = 12


def _pnames(count: int):
    return [ProvenanceRecord({"label": f"h{i}"}).pname() for i in range(count)]


@st.composite
def dag_insertions(draw):
    """A random DAG as a shuffled edge-insertion sequence plus query points.

    Edges always point child -> parent with ``parent`` earlier in a
    fixed node ordering, so any subset in any order stays acyclic.
    """
    node_count = draw(st.integers(min_value=2, max_value=_MAX_NODES))
    candidates = [
        (child, parent) for child in range(1, node_count) for parent in range(child)
    ]
    edges = draw(
        st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates))
    )
    order = draw(st.permutations(edges))
    # After which insertions to run a mid-stream query (drives the
    # incremental maintenance path instead of one final bulk build).
    query_points = draw(
        st.sets(st.integers(min_value=0, max_value=max(0, len(order) - 1)), max_size=3)
    )
    return node_count, order, query_points


def _bfs_oracle(
    node_count: int, edges: List[Tuple[int, int]]
) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Ancestor and descendant sets by plain BFS over the edge list."""
    parents: Dict[int, Set[int]] = {i: set() for i in range(node_count)}
    children: Dict[int, Set[int]] = {i: set() for i in range(node_count)}
    for child, parent in edges:
        parents[child].add(parent)
        children[parent].add(child)

    def walk(start: int, step: Dict[int, Set[int]]) -> Set[int]:
        seen: Set[int] = set()
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbour in step[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        seen.discard(start)
        return seen

    ancestors = {i: walk(i, parents) for i in range(node_count)}
    descendants = {i: walk(i, children) for i in range(node_count)}
    return ancestors, descendants


def _assert_enumerations(closure, names, oracle_ancestors, oracle_descendants, where: str) -> None:
    """Both digest-level enumerations of every node equal the oracle's, digest for digest."""
    for index, name in enumerate(names):
        for got, expected, direction in (
            (closure.ancestor_digests(name), oracle_ancestors[index], "ancestors"),
            (closure.descendant_digests(name), oracle_descendants[index], "descendants"),
        ):
            # sorted lists, not sets: a repeated digest must not compare equal
            assert sorted(got) == sorted(names[i].digest for i in expected), (
                f"{closure.name}: {direction}({index}) diverged {where}"
            )


@settings(deadline=None)
@given(dag_insertions())
def test_all_strategies_agree_with_bfs_oracle(case):
    node_count, order, query_points = case
    names = _pnames(node_count)
    oracle_ancestors, oracle_descendants = _bfs_oracle(node_count, order)

    for strategy_name in STRATEGIES:
        closure = make_closure(strategy_name)
        for name in names:
            closure.add_node(name)
        operations_seen = closure.operations
        for position, (child, parent) in enumerate(order):
            closure.add_edge(names[child], names[parent])
            if position in query_points:
                # Mid-stream answers are complete answers for the edges so far.
                _assert_enumerations(
                    closure, names, *_bfs_oracle(node_count, order[: position + 1]), f"after edge {position}"
                )
                assert closure.operations >= operations_seen
                operations_seen = closure.operations

        _assert_enumerations(closure, names, oracle_ancestors, oracle_descendants, "at the end")
        for index in range(node_count):
            got_ancestors = closure.ancestors(names[index])
            assert got_ancestors == {names[i] for i in oracle_ancestors[index]}, (
                f"{strategy_name}: ancestors({index}) diverged"
            )
            assert got_ancestors == {PName(d) for d in closure.ancestor_digests(names[index])}
            assert closure.operations >= operations_seen
            operations_seen = closure.operations
            got_descendants = closure.descendants(names[index])
            assert got_descendants == {names[i] for i in oracle_descendants[index]}, (
                f"{strategy_name}: descendants({index}) diverged"
            )
            assert got_descendants == {PName(d) for d in closure.descendant_digests(names[index])}
            for other in range(node_count):
                expected = index in oracle_ancestors[other]
                assert closure.reachable(names[index], names[other]) is expected, (
                    f"{strategy_name}: reachable({index}, {other}) diverged"
                )
            assert closure.operations >= operations_seen
            operations_seen = closure.operations


@settings(deadline=None)
@given(dag_insertions())
def test_strategies_made_over_a_populated_graph_agree_too(case):
    """Labels built in bulk as the closure is made (labelled) and an unbuilt interval index."""
    node_count, order, _ = case
    names = _pnames(node_count)
    graph = ProvenanceGraph()
    for name in names:
        graph.add_node(name)
    for child, parent in order:
        graph.add_edge(names[child], names[parent])
    oracle = _bfs_oracle(node_count, order)
    for strategy_name in STRATEGIES:
        closure = make_closure(strategy_name, graph)
        _assert_enumerations(closure, names, *oracle, "over a populated graph")


def _vandalise(found, focus: PName) -> None:
    """Empty, then refill with the focus, whatever a digest-level call handed out."""
    found.clear()
    (getattr(found, "add", None) or found.append)(focus.digest)


@settings(deadline=None)
@given(dag_insertions())
def test_no_live_label_set_leaves_the_closure(case):
    """What a read hands out is the caller's: wrecking it changes no later answer.

    ``_LineageProbe.probe`` adds the focus to it for ``include_self``; were
    it the labelled strategy's own label set (or the memoized one's cache
    entry), every later read of that node would be wrong.
    """
    node_count, order, _ = case
    names = _pnames(node_count)
    oracle = _bfs_oracle(node_count, order)
    for strategy_name in STRATEGIES:
        closure = make_closure(strategy_name)
        for child, parent in order:
            closure.add_edge(names[child], names[parent])
        for name in names:
            closure.add_node(name)
        for _ in range(2):  # (memoized: the miss that fills the cache, then the hit)
            for name in names:
                _vandalise(closure.ancestor_digests(name), name)
                _vandalise(closure.descendant_digests(name), name)
        _assert_enumerations(closure, names, *oracle, "after its answers were mutated")
