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

Inside the store a node is named by its digest string; a :class:`PName`
is made only for what an answer hands out.  The graph keeps one per
node, minted by :meth:`ProvenanceGraph.name_of` the first time the node
is handed out and held until the graph goes, so every query page and
lineage page that names a node hands out that same object, and a caller
who holds its pages holds no copies.  Nothing on the write path (nor
:meth:`~ProvenanceGraph.restore`) fills the table.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain, compress
from operator import not_
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

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
        # (topological_order() would do, at four times the cost: it sorts and wraps
        # every node for its callers, and this runs inside every adopted open.)
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

    def nodes(self) -> Iterator[PName]:
        """Iterate over every node in the graph."""
        for digest in self._parents:
            yield PName(digest)

    def is_removed(self, pname: PName) -> bool:
        """True when the node's underlying data was marked removed."""
        return pname.digest in self._removed

    def parents(self, pname: PName) -> List[PName]:
        """Immediate ancestors (the data sets this one was derived from)."""
        self._require(pname)
        return [PName(d) for d in sorted(self._parents[pname.digest])]

    def children(self, pname: PName) -> List[PName]:
        """Immediate descendants (data sets derived directly from this one)."""
        self._require(pname)
        return [PName(d) for d in sorted(self._children.get(pname.digest, _NO_EDGES))]

    def roots(self) -> List[PName]:
        """Nodes with no parents: raw captures."""
        return [PName(d) for d in sorted(self._parents) if not self._parents[d]]

    def leaves(self) -> List[PName]:
        """Nodes with no children: the most-derived data sets."""
        return [PName(d) for d in sorted(self._parents) if d not in self._children]

    def edge_count(self) -> int:
        """Total number of derivation edges."""
        return sum(len(parents) for parents in self._parents.values())

    # ------------------------------------------------------------------
    # Digest-level views (index maintenance hot paths)
    # ------------------------------------------------------------------
    # The PName-returning accessors above sort and wrap on every call,
    # which is right for user-facing code but too slow for the closure
    # engines that walk the whole graph.  These views hand out the
    # graph's own adjacency, without a copy.

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
    def ancestors(self, pname: PName, max_depth: Optional[int] = None) -> Set[PName]:
        """Every data set this one was (transitively) derived from.

        ``max_depth`` bounds how many generations back to walk; ``None``
        walks to the raw roots.
        """
        self._require(pname)
        return {PName(d) for d in self._walk(pname.digest, self._parents, max_depth)}

    def descendants(self, pname: PName, max_depth: Optional[int] = None) -> Set[PName]:
        """Every data set (transitively) derived from this one.

        This is the paper's taint query: "if a problem is found with the
        original data ... all downstream data is tainted and must be
        locatable."
        """
        self._require(pname)
        return {PName(d) for d in self._walk(pname.digest, self._children, max_depth)}

    def raw_sources(self, pname: PName) -> Set[PName]:
        """The raw (rootless) ancestors of a data set.

        "Find all the raw data from which this data set was derived."
        """
        self._require(pname)
        candidates = self._walk(pname.digest, self._parents, None)
        if not self._parents.get(pname.digest):
            # A raw data set is its own (sole) raw source.
            candidates = candidates | {pname.digest}
        return {PName(digest) for digest in candidates if not self._parents.get(digest)}

    def is_ancestor(self, candidate: PName, of: PName) -> bool:
        """True when ``candidate`` is a (transitive) ancestor of ``of``."""
        self._require(candidate)
        self._require(of)
        return self._reaches(of.digest, candidate.digest, self._parents)

    def path(self, descendant: PName, ancestor: PName) -> Optional[List[PName]]:
        """One derivation path from ``descendant`` back to ``ancestor``.

        Returns the list of PNames from descendant (inclusive) to
        ancestor (inclusive), or ``None`` when no path exists.  Used to
        "show me what I need to reproduce this result".
        """
        self._require(descendant)
        self._require(ancestor)
        target = ancestor.digest
        queue = deque([descendant.digest])
        came_from: Dict[str, Optional[str]] = {descendant.digest: None}
        while queue:
            current = queue.popleft()
            if current == target:
                path = []
                node: Optional[str] = current
                while node is not None:
                    path.append(PName(node))
                    node = came_from[node]
                # ``path`` runs ancestor -> descendant; callers expect the
                # derivation order descendant -> ancestor.
                return path[::-1]
            for parent in self._parents.get(current, ()):
                if parent not in came_from:
                    came_from[parent] = current
                    queue.append(parent)
        return None

    def depth(self, pname: PName) -> int:
        """Length of the longest derivation chain below this node (0 = raw)."""
        self._require(pname)
        return self._depth_into(pname.digest, {})

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

    def topological_order(self) -> List[PName]:
        """Nodes ordered parents-before-children (raw data first)."""
        in_degree = {digest: len(parents) for digest, parents in self._parents.items()}
        queue = deque(sorted(d for d, deg in in_degree.items() if deg == 0))
        order: List[PName] = []
        while queue:
            digest = queue.popleft()
            order.append(PName(digest))
            for child in sorted(self._children.get(digest, ())):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._parents):  # pragma: no cover - defensive
            raise CycleError("provenance graph contains a cycle")
        return order

    def subgraph_edges(self, pnames: Iterable[PName]) -> List[Tuple[PName, PName]]:
        """Edges (child, parent) with both endpoints in ``pnames``."""
        wanted = {p.digest for p in pnames}
        edges = []
        for child in sorted(wanted & set(self._parents)):
            for parent in sorted(self._parents[child]):
                if parent in wanted:
                    edges.append((PName(child), PName(parent)))
        return edges

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, pname: PName) -> None:
        if pname.digest not in self._parents:
            raise UnknownEntityError(f"unknown node {pname}")

    @staticmethod
    def _walk(
        start: str,
        adjacency: Dict[str, Adjacency],
        max_depth: Optional[int],
    ) -> Set[str]:
        seen: Set[str] = set()
        frontier = deque([(start, 0)])
        while frontier:
            digest, depth = frontier.popleft()
            if max_depth is not None and depth >= max_depth:
                continue
            for neighbour in adjacency.get(digest, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append((neighbour, depth + 1))
        seen.discard(start)
        return seen

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
