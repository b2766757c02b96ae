"""Property: a descendant watch fires exactly where the target's closure says.

``client.subscribe_descendants(w)`` is the taint query kept live, so on
every target that answers closure queries it must agree with one oracle:
a set published after the watch was registered fires it iff, *at its own
publish*, a BFS over the parent lists of the sets published so far
reaches ``w``.  Hypothesis draws a DAG of up to 12 sets, publishes them
in any order (a parent may land after its children, and some sets are
never published), and registers one or two watches at random steps,
on a set that may itself never be published.  The same histories run on
``memory://``, ``sqlite:///`` and every lineage-capable architecture
model.  Example counts come from the active Hypothesis profile (CI runs
this file again under ``--hypothesis-profile=thorough``).

The plain tests below pin what the property cannot draw: ``soft-state``
refuses the watch, and a lineage check a partition cuts short fires
nothing for that record, is counted, and the watch recovers on heal.
"""

from __future__ import annotations

import tempfile
from collections import deque
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lineage.test_lineage_read_paths import LINEAGE_MODEL_URLS

from repro.api import connect
from repro.core import ProvenanceRecord, TupleSet
from repro.errors import UnsupportedQueryError

_MAX_SETS = 12


@st.composite
def watch_histories(draw):
    """``(parents, order, watches)``: a DAG, a publish order, and ``(watched, step)`` pairs.

    Set ``i`` names up to two of the three sets before it as parents, so
    the graph stays acyclic whatever the publish order and runs in
    chains deep enough to have intermediates; ``order`` publishes a
    subset of the sets, fully shuffled (``st.permutations`` stays near
    the identity, which for this graph is parents first); a watch on
    ``watched`` is registered just before the ``step``-th publish
    (``step == len(order)``: after the last).
    """
    count = draw(st.integers(min_value=2, max_value=_MAX_SETS))
    parents = [
        sorted(draw(st.sets(st.integers(min_value=max(0, i - 3), max_value=i - 1), max_size=2))) if i else []
        for i in range(count)
    ]
    order = list(range(count))
    draw(st.randoms(use_true_random=False)).shuffle(order)
    order = order[: draw(st.integers(min_value=1, max_value=count))]
    watches = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=count - 1),
                st.integers(min_value=0, max_value=len(order)),
            ),
            min_size=1,
            max_size=2,
        )
    )
    return parents, order, watches


#: W <- A <- X <- Y with W never published: X lands before its parent A,
#: so only the closure at Y's publish, not Y's parents' state, sees Y descend from W
_OUT_OF_ORDER = ([[], [0], [1], [2]], [2, 1, 3], [(0, 0)])


def _tuple_sets(parents: List[List[int]]) -> List[TupleSet]:
    made: List[TupleSet] = []
    for index, named in enumerate(parents):
        record = ProvenanceRecord(
            {"domain": "watch", "sequence": index},
            ancestors=tuple(made[parent].pname for parent in named),
        )
        made.append(TupleSet([], record))
    return made


def _expected(parents, order, watched: int, step: int) -> List[int]:
    """The sets whose publish fires a watch on ``watched`` registered before publish ``step``."""
    fired = []
    for position in range(step, len(order)):
        published: Set[int] = set(order[: position + 1])
        seen: Set[int] = set()
        frontier = deque([order[position]])
        while frontier:
            node = frontier.popleft()
            if node not in published:
                continue  # known by name only: its parents are nobody's to tell
            for parent in parents[node]:
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        if watched in seen:
            fired.append(order[position])
    return fired


def _run(url: str, parents, order, watches) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    sets = _tuple_sets(parents)
    index_of = {tuple_set.pname: index for index, tuple_set in enumerate(sets)}
    subscriptions = {}
    with connect(url) as client:
        for position in range(len(order) + 1):
            for number, (watched, step) in enumerate(watches):
                if step == position:
                    subscriptions[number] = client.subscribe_descendants(sets[watched])
            if position < len(order):
                client.publish(sets[order[position]])
        got = {number: [index_of[e.pname] for e in sub.drain()] for number, sub in subscriptions.items()}
    expected = {
        number: _expected(parents, order, watched, step) for number, (watched, step) in enumerate(watches)
    }
    return got, expected


@pytest.mark.parametrize("url", ["memory://", "sqlite:///{path}"] + LINEAGE_MODEL_URLS)
@settings(deadline=None)
@given(history=watch_histories())
@example(history=_OUT_OF_ORDER)
def test_a_descendant_watch_fires_where_a_bfs_over_published_parents_reaches(url, history):
    parents, order, watches = history
    with tempfile.TemporaryDirectory() as directory:
        got, expected = _run(url.format(path=Path(directory) / "pass.db"), parents, order, watches)
    assert got == expected


def test_soft_state_refuses_the_watch_and_registers_nothing():
    with connect("soft-state://") as client:
        root = _tuple_sets([[]])[0]
        client.publish(root)
        with pytest.raises(UnsupportedQueryError, match="soft-state"):
            client.subscribe_descendants(root)
        assert client.subscriptions() == []
        assert client._stream_engine(create=False) is None  # refused before an engine was made


def test_a_partitioned_lineage_check_fires_nothing_and_is_counted_until_the_heal():
    root, child, grandchild = _tuple_sets([[], [0], [1]])
    with connect("federated://") as client:
        subscriber = client.default_origin
        client.publish(root, origin=subscriber)
        watch = client.subscribe_descendants(root)
        cut = next(
            site for site in client.topology.site_names if site != subscriber and site != "warehouse"
        )
        client.model.network.partition(cut)
        published = client.publish(child, origin=subscriber)  # returns normally
        assert published.records == [child.pname]
        assert watch.drain() == []
        assert client.model.notifications_suppressed == 1
        assert client.stats()["notifications_suppressed"] == 1
        client.model.network.heal(cut)
        client.publish(grandchild, origin=subscriber)
        assert [event.pname for event in watch.drain()] == [grandchild.pname]
        assert client.model.notifications_suppressed == 1
