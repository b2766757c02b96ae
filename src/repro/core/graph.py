"""The provenance DAG: ancestry relationships between tuple sets.

Most of the interesting queries in the paper are graph queries: "find
all the raw data from which this data set was derived", "find derived
data that may be many generations downstream", "all downstream data is
tainted and must be locatable".  The :class:`ProvenanceGraph` holds the
ancestry edges extracted from provenance records and answers those
reachability questions.

The graph is append-only in the sense that edges are never rewritten --
provenance, once recorded, is immutable -- but *nodes* may be marked
removed (the underlying data was deleted) without their edges
disappearing, which is what PASS property P4 requires.

The adjacency is held in the shapes that immutability allows: a node's
parents are a tuple, fixed when its record is indexed; its children are
a list, made at its first child; every other node shares the empty
tuple.  Most nodes are raw captures or leaves, so most share it.

Inside the store a node is named by its digest string, and every
answer the graph gives is digests; a :class:`PName` is made only for
what an answer hands out.  The graph keeps one per node, minted by
:meth:`ProvenanceGraph.name_of` the first time the node is handed out
and held until the graph goes, so every query page and lineage page
that names a node hands out that same object, and a caller who holds
its pages holds no copies.  Nothing on the write path (nor
:meth:`~ProvenanceGraph.restore`) fills the table.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain, compress
from operator import not_
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import CycleError, UnknownEntityError
from repro.index.sections import check_positions, column

__all__ = ["ProvenanceGraph"]

#: the adjacency of a node without parents (or children), and of an unknown
#: digest: one empty tuple, shared by them all
_NO_EDGES: Tuple[str, ...] = ()

#: a node's parents (a tuple) or children (a list); read-only to callers
Adjacency = Union[Tuple[str, ...], List[str]]


class ProvenanceGraph:
    """A DAG over PNames with parent (ancestor) and child (descendant) edges.

    Nodes are identified by PName digests.  An edge ``child -> parent``
    means "child was derived from parent".  The graph rejects edges that
    would create a cycle, because a data set cannot be its own ancestor.
    """

    def __init__(self) -> None:
        #: every node's parents; the node set is this dict's keys
        self._parents: Dict[str, Tuple[str, ...]] = {}
        #: the children of the nodes that have any
        self._children: Dict[str, List[str]] = {}
        self._removed: Set[str] = set()
        #: the one PName of each node handed out so far (see :meth:`name_of`)
        self._names: Dict[str, PName] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, pname: PName) -> None:
        """Ensure a node exists (idempotent)."""
        self._parents.setdefault(pname.digest, _NO_EDGES)

    def add_record(self, record: ProvenanceRecord) -> None:
        """Add a provenance record's node and all of its ancestry edges.

        Ancestor nodes are created implicitly even if their own records
        have not been registered (or were removed): the child's record is
        sufficient evidence that they existed.
        """
        child = record.pname()
        self.add_node(child)
        for ancestor in record.ancestors:
            self.add_edge(child, ancestor)

    def add_edge(self, child: PName, parent: PName) -> None:
        """Record that ``child`` was derived from ``parent``.

        Raises :class:`~repro.errors.CycleError` if the edge would make
        ``parent`` reachable from itself.  Adding an edge the graph holds
        changes nothing.
        """
        child_digest, parent_digest = child.digest, parent.digest
        if child_digest == parent_digest:
            raise CycleError("a data set cannot be derived from itself")
        parents = self._parents.setdefault(child_digest, _NO_EDGES)
        self._parents.setdefault(parent_digest, _NO_EDGES)
        if parent_digest in parents:
            return
        # The edge child->parent creates a cycle iff child is already an
        # ancestor of parent -- which takes a child of its own: a set
        # nothing derives from yet (every newly published one) needs no walk.
        if child_digest in self._children and self._reaches(parent_digest, child_digest, self._parents):
            raise CycleError(
                f"edge {child.short} -> {parent.short} would create a provenance cycle"
            )
        # (a record's parents arrive together, so the tuple is rebuilt a
        # few times at most, while the record is indexed)
        self._parents[child_digest] = parents + (parent_digest,)
        children = self._children.get(parent_digest)
        if children is None:
            self._children[parent_digest] = [child_digest]
        else:
            children.append(child_digest)

    def mark_removed(self, pname: PName) -> None:
        """Mark a node's underlying data as removed.

        The node and its edges stay: provenance is not lost when ancestor
        objects are removed (PASS property P4).
        """
        if pname.digest not in self._parents:
            raise UnknownEntityError(f"unknown node {pname}")
        self._removed.add(pname.digest)

    def snapshot(self, position_of: Dict[str, int]) -> dict:
        """Every node's parents, node by node in position order, as two ``int64`` columns.

        ``position_of`` numbers exactly this graph's nodes from 0, and
        lists them in that order: ``counts`` holds how many parents each
        has, ``parents`` their positions, node after node, each node's
        sorted.  The removal marks are not part: the backend keeps those
        itself.
        """
        listed = [sorted(map(position_of.__getitem__, self._parents[digest])) for digest in position_of]
        return {"counts": array("q", map(len, listed)), "parents": array("q", chain.from_iterable(listed))}

    def restore(self, state: dict, digests: Sequence[str]) -> None:
        """Adopt a :meth:`snapshot` into this empty graph; ``digests[position]`` names a node.

        Builds the shapes :meth:`add_edge` does: a tuple of parents per
        node that has any, a list of children per node that has any.
        Raises :class:`~repro.errors.CycleError` when the edges do not
        form a DAG and ``ValueError``/``TypeError``/``LookupError`` on
        other state that no snapshot produces, a parent listed twice for
        one node among it; the graph then stays empty.
        """
        counts = column(state["counts"], "q")
        listed = check_positions(state["parents"], len(digests))
        parents: Dict[str, Tuple[str, ...]] = dict.fromkeys(digests, _NO_EDGES)
        if not len(counts) == len(digests) == len(parents):
            raise ValueError("one parent count per node, and no node twice")
        if counts and min(counts) < 0:
            raise ValueError("negative parent count")
        if sum(counts) != len(listed):
            raise ValueError("parent counts do not add up to the parents listed")
        named = list(map(digests.__getitem__, listed))
        children: Dict[str, List[str]] = {}
        at = 0
        for child, count in compress(zip(digests, counts), counts):
            found = parents[child] = tuple(named[at : at + count])
            at += count
            if count > 1 and len(set(found)) < count:
                raise ValueError("a parent listed twice for one node")
            for parent in found:
                siblings = children.get(parent)
                if siblings is None:
                    children[parent] = [child]
                else:
                    siblings.append(child)
        # Kahn's algorithm: whatever is never freed of its parents sits on a cycle.
        # (topological_order() would do, at the cost of its sorts, and this runs
        # inside every adopted open.)
        waiting = dict(zip(digests, counts))
        free = list(compress(digests, map(not_, counts)))
        freed = len(free)
        while free:
            for child in children.get(free.pop(), _NO_EDGES):
                left = waiting[child] - 1
                waiting[child] = left
                if not left:
                    free.append(child)
                    freed += 1
        if freed != len(parents):
            raise CycleError("checkpointed edges would create a provenance cycle")
        self._parents, self._children = parents, children

    # ------------------------------------------------------------------
    # Basic lookups
    # ------------------------------------------------------------------
    def __contains__(self, pname: PName) -> bool:
        return pname.digest in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def name_of(self, digest: str) -> PName:
        """The node's one :class:`PName`, made the first time it is handed out.

        Every answer hands out this object for the node, so a page costs
        a dict lookup per row, not a new object.  Raises
        :class:`~repro.errors.UnknownEntityError` for a digest that is not
        a node.
        """
        name = self._names.get(digest)
        if name is None:
            if digest not in self._parents:
                raise UnknownEntityError(f"unknown node {digest!r}")
            name = self._names[digest] = PName(digest)
        return name

    def is_removed(self, pname: PName) -> bool:
        """True when the node's underlying data was marked removed."""
        return pname.digest in self._removed

    def edge_count(self) -> int:
        """Total number of derivation edges."""
        return sum(len(parents) for parents in self._parents.values())

    # ------------------------------------------------------------------
    # Adjacency, by digest
    # ------------------------------------------------------------------
    # Every answer below is digests: the graph's own adjacency, without a
    # copy, or a new set or list.  A caller that hands a node out names it
    # by :meth:`name_of`.

    def node_digests(self) -> Iterable[str]:
        """Every node digest (a live view; do not mutate the graph while iterating)."""
        return self._parents.keys()

    def removed_digests(self) -> Set[str]:
        """Digests of the nodes marked removed (a live view; read-only)."""
        return self._removed

    def parents_of(self, digest: str) -> Tuple[str, ...]:
        """Immediate ancestor digests of ``digest``, each once, in the order they were added.

        The graph's own tuple (immutable, as a record's ancestry is); the
        shared empty tuple for a raw node or an unknown digest.
        """
        return self._parents.get(digest, _NO_EDGES)

    def children_of(self, digest: str) -> Adjacency:
        """Immediate descendant digests of ``digest``, each once, in the order they were added.

        The graph's own list, which grows as children arrive: read it,
        never change it, and take a copy to keep it past the next write.
        The shared empty tuple for a node nothing derives from or an
        unknown digest.
        """
        return self._children.get(digest, _NO_EDGES)

    # ------------------------------------------------------------------
    # Reachability (transitive closure)
    # ------------------------------------------------------------------
    def walk(self, digest: str, up: bool) -> Set[str]:
        """Every digest reachable from ``digest`` along parent (``up``) or child edges.

        The one lineage walk: the walking closure strategies, the
        memoized strategy's invalidation, :meth:`raw_sources` and the
        abstraction report all answer through it.  A new set, never
        holding ``digest`` itself (the graph is acyclic); empty for an
        unknown digest.
        """
        step = (self._parents if up else self._children).get
        seen: Set[str] = set()
        frontier = deque([digest])
        while frontier:
            for neighbour in step(frontier.popleft(), _NO_EDGES):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen

    def raw_sources(self, digest: str) -> Set[str]:
        """The raw (parentless) ancestors of ``digest``; a raw node is its own sole source.

        "Find all the raw data from which this data set was derived."
        """
        parents = self._parents
        if not parents.get(digest):
            return {digest}
        return {ancestor for ancestor in self.walk(digest, up=True) if not parents[ancestor]}

    def path(self, descendant: str, ancestor: str) -> Optional[List[str]]:
        """One shortest derivation path from ``descendant`` back to ``ancestor``.

        The digests from descendant (inclusive) to ancestor (inclusive),
        or ``None`` when no path exists.  Used to "show me what I need to
        reproduce this result".
        """
        queue = deque([descendant])
        came_from: Dict[str, Optional[str]] = {descendant: None}
        while queue:
            current = queue.popleft()
            if current == ancestor:
                path: List[str] = []
                node: Optional[str] = current
                while node is not None:
                    path.append(node)
                    node = came_from[node]
                # ``path`` runs ancestor -> descendant; callers expect the
                # derivation order descendant -> ancestor.
                return path[::-1]
            for parent in self._parents.get(current, _NO_EDGES):
                if parent not in came_from:
                    came_from[parent] = current
                    queue.append(parent)
        return None

    def _depth_into(self, start: str, memo: Dict[str, int]) -> int:
        """Longest-chain depth of ``start``, folded into a shared ``memo``.

        Iterative (explicit stack) so 10^3+-deep derivation chains never
        hit the interpreter's recursion limit; the memo is caller-owned
        so whole-graph sweeps compute each node's depth exactly once.
        """
        if start in memo:
            return memo[start]
        stack = [start]
        while stack:
            digest = stack[-1]
            if digest in memo:
                stack.pop()
                continue
            parents = self._parents.get(digest, ())
            pending = [parent for parent in parents if parent not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[digest] = 0 if not parents else 1 + max(memo[parent] for parent in parents)
            stack.pop()
        return memo[start]

    def ancestry_depth_distribution(self) -> Dict[int, int]:
        """Histogram of node depth -> count, the store's one definition of depth.

        One memo is shared across the whole sweep, so the sweep is
        O(V + E) rather than the O(V * E) a per-node recomputation costs.
        """
        histogram: Dict[int, int] = {}
        memo: Dict[str, int] = {}
        for digest in self._parents:
            depth = self._depth_into(digest, memo)
            histogram[depth] = histogram.get(depth, 0) + 1
        return dict(sorted(histogram.items()))

    def shape(self) -> dict:
        """The DAG's shape as ``stats()`` reports it, read off the graph now (O(V + E)).

        Node and edge counts, fan-in, the depth histogram of
        :meth:`ancestry_depth_distribution`, and ``expected_reach``: mean
        depth times mean fan-in (at least 1), plus one, capped at the node
        count -- a rough size of an average lineage probe's closure.
        """
        nodes, edges = len(self._parents), self.edge_count()
        histogram = self.ancestry_depth_distribution()
        mean_depth = sum(depth * count for depth, count in histogram.items()) / nodes if nodes else 0.0
        mean_fan_in = edges / nodes if nodes else 0.0
        return {
            "nodes": nodes,
            "edges": edges,
            "max_depth": max(histogram, default=0),
            "max_fan_in": max(map(len, self._parents.values()), default=0),
            "mean_depth": round(mean_depth, 3),
            "mean_fan_in": round(mean_fan_in, 3),
            "expected_reach": min(nodes, round(mean_depth * max(1.0, mean_fan_in)) + 1) if nodes else 0,
            "depth_histogram": histogram,
        }

    def topological_order(self) -> List[str]:
        """Every node digest, parents before children (raw data first).

        Kahn's algorithm with its ties broken by digest: the roots in
        digest order, then each node's children in digest order, so the
        order (and the chains the interval strategy cuts from it) is the
        same for the same graph however it was built.
        """
        in_degree = {digest: len(parents) for digest, parents in self._parents.items()}
        order = sorted(digest for digest, degree in in_degree.items() if not degree)
        for digest in order:  # (the list grows as children are freed)
            for child in sorted(self._children.get(digest, _NO_EDGES)):
                in_degree[child] -= 1
                if not in_degree[child]:
                    order.append(child)
        if len(order) != len(self._parents):  # pragma: no cover - defensive
            raise CycleError("provenance graph contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reaches(self, start: str, target: str, adjacency: Dict[str, Adjacency]) -> bool:
        if start == target:
            return True
        seen = {start}
        frontier = deque([start])
        while frontier:
            digest = frontier.popleft()
            for neighbour in adjacency.get(digest, ()):
                if neighbour == target:
                    return True
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return False
