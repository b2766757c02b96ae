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
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.provenance import PName, ProvenanceRecord
from repro.errors import CycleError, UnknownEntityError

__all__ = ["ProvenanceGraph"]

#: shared empty adjacency set handed out for unknown digests (read-only)
_NO_EDGES: Set[str] = set()


class ProvenanceGraph:
    """A DAG over PNames with parent (ancestor) and child (descendant) edges.

    Nodes are identified by PName digests.  An edge ``child -> parent``
    means "child was derived from parent".  The graph rejects edges that
    would create a cycle, because a data set cannot be its own ancestor.
    """

    def __init__(self) -> None:
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}
        self._removed: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, pname: PName) -> None:
        """Ensure a node exists (idempotent)."""
        digest = pname.digest
        self._parents.setdefault(digest, set())
        self._children.setdefault(digest, set())

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
        ``parent`` reachable from itself.
        """
        if child.digest == parent.digest:
            raise CycleError("a data set cannot be derived from itself")
        self.add_node(child)
        self.add_node(parent)
        # The edge child->parent creates a cycle iff child is already an
        # ancestor of parent -- which takes a child of its own: a set
        # nothing derives from yet (every newly published one) needs no walk.
        if self._children[child.digest] and self._reaches(
            parent.digest, child.digest, self._parents
        ):
            raise CycleError(
                f"edge {child.short} -> {parent.short} would create a provenance cycle"
            )
        self._parents[child.digest].add(parent.digest)
        self._children[parent.digest].add(child.digest)

    def mark_removed(self, pname: PName) -> None:
        """Mark a node's underlying data as removed.

        The node and its edges stay: provenance is not lost when ancestor
        objects are removed (PASS property P4).
        """
        if pname.digest not in self._parents:
            raise UnknownEntityError(f"unknown node {pname}")
        self._removed.add(pname.digest)

    def snapshot(self, position_of: Dict[str, int]) -> dict:
        """Every node's parents, node by node in position order.

        ``position_of`` numbers exactly this graph's nodes from 0, and
        lists them in that order.  The removal marks are not part: the
        backend keeps those itself.
        """
        return {
            "parents": [sorted(position_of[parent] for parent in self._parents[digest]) for digest in position_of]
        }

    def restore(self, state: dict, digests: Sequence[str]) -> None:
        """Adopt a :meth:`snapshot` into this empty graph; ``digests[position]`` names a node.

        Raises :class:`~repro.errors.CycleError` when the edges do not
        form a DAG and ``ValueError``/``TypeError``/``LookupError`` on
        other state that no snapshot produces; the graph then stays empty.
        """
        listed = state["parents"]
        parents: Dict[str, Set[str]] = {digest: set() for digest in digests}
        children: Dict[str, Set[str]] = {digest: set() for digest in digests}
        if not len(listed) == len(digests) == len(parents):
            raise ValueError("one parent list per node, and no node twice")
        for child, positions in zip(digests, listed):
            if not positions:
                continue
            if min(positions) < 0:
                raise ValueError("negative position")
            for at in positions:
                parents[child].add(digests[at])
                children[digests[at]].add(child)
        # Kahn's algorithm: whatever is never freed of its parents sits on a cycle.
        # (topological_order() would do, at four times the cost: it sorts and wraps
        # every node for its callers, and this runs inside every adopted open.)
        waiting = {digest: len(found) for digest, found in parents.items()}
        free = [digest for digest, count in waiting.items() if not count]
        freed = 0
        while free:
            freed += 1
            for child in children[free.pop()]:
                waiting[child] -= 1
                if not waiting[child]:
                    free.append(child)
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
        return [PName(d) for d in sorted(self._children[pname.digest])]

    def roots(self) -> List[PName]:
        """Nodes with no parents: raw captures."""
        return [PName(d) for d in sorted(self._parents) if not self._parents[d]]

    def leaves(self) -> List[PName]:
        """Nodes with no children: the most-derived data sets."""
        return [PName(d) for d in sorted(self._children) if not self._children[d]]

    def edge_count(self) -> int:
        """Total number of derivation edges."""
        return sum(len(parents) for parents in self._parents.values())

    # ------------------------------------------------------------------
    # Digest-level views (index maintenance hot paths)
    # ------------------------------------------------------------------
    # The PName-returning accessors above sort and wrap on every call,
    # which is right for user-facing code but too slow for the closure
    # engines that walk the whole graph.  These views hand out the raw
    # adjacency sets; callers must treat them as read-only.

    def node_digests(self) -> Iterable[str]:
        """Every node digest (a live view; do not mutate the graph while iterating)."""
        return self._parents.keys()

    def removed_digests(self) -> Set[str]:
        """Digests of the nodes marked removed (a live view; read-only)."""
        return self._removed

    def parents_of(self, digest: str) -> Set[str]:
        """Immediate ancestor digests of ``digest`` (empty for unknown nodes)."""
        return self._parents.get(digest, _NO_EDGES)

    def children_of(self, digest: str) -> Set[str]:
        """Immediate descendant digests of ``digest`` (empty for unknown nodes)."""
        return self._children.get(digest, _NO_EDGES)

    def fingerprint(self) -> Dict[str, int]:
        """A cheap, order-independent digest of the graph's structure.

        Used to validate persisted reachability-index snapshots against
        the graph actually rebuilt from a backend: same node set + same
        edge set => same fingerprint.  XOR-combining per-element CRCs
        makes the value independent of insertion order in O(V + E).
        """
        crc = 0
        for digest, parents in self._parents.items():
            crc ^= zlib.crc32(digest.encode("ascii"))
            for parent in parents:
                crc ^= zlib.crc32(f"{digest}->{parent}".encode("ascii"))
        return {"nodes": len(self._parents), "edges": self.edge_count(), "crc": crc}

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
        """Histogram of node depth -> count; used by evaluation reports.

        One memo is shared across the whole sweep, so the sweep is
        O(V + E) rather than the O(V * E) a per-node recomputation costs.
        """
        histogram: Dict[int, int] = {}
        memo: Dict[str, int] = {}
        for digest in self._parents:
            depth = self._depth_into(digest, memo)
            histogram[depth] = histogram.get(depth, 0) + 1
        return dict(sorted(histogram.items()))

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
        adjacency: Dict[str, Set[str]],
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

    def _reaches(self, start: str, target: str, adjacency: Dict[str, Set[str]]) -> bool:
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
