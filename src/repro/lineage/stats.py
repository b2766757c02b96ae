"""Ingest-maintained statistics over the provenance DAG.

The cost-based planner can only choose a lineage access path over a
full scan if it can *price* one without running it.  Chain-walking the
graph at plan time would defeat the point, so the store feeds this
collector one :meth:`observe` call per ingested record and every
estimate is a counter read:

* node / edge counts and the mean derivation fan-in,
* a **depth histogram** (how many records sit at each derivation
  depth), maintained incrementally -- a record's depth is one more than
  the deepest of its ancestors,
* the expected closure size a lineage probe should plan for.

The depth of a record is fixed at ingest from what is known *then*;
out-of-order ingest (a child arriving before its ancestor's own record)
can understate depths.  That is acceptable by construction: statistics
feed estimates, and estimates affect cost, never correctness.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.core.provenance import PName

__all__ = ["GraphStatistics"]


class GraphStatistics:
    """Cheap per-store facts about the shape of the provenance DAG."""

    def __init__(self) -> None:
        self.nodes = 0
        self.edges = 0
        self.max_depth = 0
        self.max_fan_in = 0
        #: derivation depth -> number of records at that depth
        self.depth_histogram: Dict[int, int] = {}
        self._depth_of: Dict[str, int] = {}
        self._depth_total = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def observe(self, pname: PName, ancestors: Iterable[PName]) -> None:
        """Fold one freshly ingested record into the counters."""
        ancestor_list = list(ancestors)
        depth = 0
        for ancestor in ancestor_list:
            known = self._ensure_node(ancestor.digest)
            depth = max(depth, known + 1)
        self.edges += len(ancestor_list)
        self.max_fan_in = max(self.max_fan_in, len(ancestor_list))
        previous = self._depth_of.get(pname.digest)
        if previous is None:
            self.nodes += 1
        elif depth > previous:
            # The node was first seen as a bare ancestor reference (depth
            # 0); its own record tells us its real derivation depth.
            self.depth_histogram[previous] -= 1
            if not self.depth_histogram[previous]:
                del self.depth_histogram[previous]
            self._depth_total -= previous
        else:
            return
        self._depth_of[pname.digest] = depth
        self.depth_histogram[depth] = self.depth_histogram.get(depth, 0) + 1
        self._depth_total += depth
        self.max_depth = max(self.max_depth, depth)

    def recompute(self, graph) -> None:
        """Recompute every counter from the live graph (scheduled refresh).

        The incremental path fixes a record's depth at ingest time, so
        out-of-order ingest (child before ancestor) understates depths
        forever.  The feedback loop periodically calls this with the
        store's :class:`~repro.core.graph.ProvenanceGraph`: one memoized
        longest-path pass over ``parents_of`` (the graph is acyclic by
        construction) rebuilds the histogram with *true* depths.
        """
        depth_of: Dict[str, int] = {}
        for digest in graph.node_digests():
            if digest in depth_of:
                continue
            stack = [digest]
            while stack:
                current = stack[-1]
                if current in depth_of:
                    stack.pop()
                    continue
                parents = graph.parents_of(current)
                pending = [p for p in parents if p not in depth_of]
                if pending:
                    stack.extend(pending)
                    continue
                depth_of[current] = max(
                    (depth_of[p] + 1 for p in parents), default=0
                )
                stack.pop()
        histogram: Dict[int, int] = {}
        total = 0
        edges = 0
        fan_in = 0
        for digest, depth in depth_of.items():
            histogram[depth] = histogram.get(depth, 0) + 1
            total += depth
            parent_count = len(graph.parents_of(digest))
            edges += parent_count
            fan_in = max(fan_in, parent_count)
        self._depth_of = depth_of
        self.nodes = len(depth_of)
        self.edges = edges
        self.max_fan_in = fan_in
        self.depth_histogram = histogram
        self._depth_total = total
        self.max_depth = max(histogram, default=0)

    def checkpoint(self, position_of: Dict[str, int]) -> dict:
        """Every node's depth in position order, and the two counters depths do not give.

        ``position_of`` numbers exactly the nodes seen so far from 0, and
        lists them in that order.
        """
        depths = [self._depth_of[digest] for digest in position_of]
        return {"depths": depths, "edges": self.edges, "max_fan_in": self.max_fan_in}

    def restore(self, state: dict, digests: Sequence[str]) -> None:
        """Adopt a :meth:`checkpoint`; ``digests[position]`` names a node.  Raises on state that none produces."""
        depths = [int(depth) for depth in state["depths"]]
        if len(depths) != len(digests) or (depths and min(depths) < 0):
            raise ValueError("one non-negative depth per node")
        histogram: Dict[int, int] = {}
        for depth in depths:
            histogram[depth] = histogram.get(depth, 0) + 1
        self.edges, self.max_fan_in = int(state["edges"]), int(state["max_fan_in"])
        self._depth_of = dict(zip(digests, depths))
        self.nodes = len(depths)
        self.depth_histogram = histogram
        self._depth_total = sum(depths)
        self.max_depth = max(depths, default=0)

    def _ensure_node(self, digest: str) -> int:
        """Register an implicitly referenced ancestor; return its known depth."""
        known = self._depth_of.get(digest)
        if known is not None:
            return known
        self.nodes += 1
        self._depth_of[digest] = 0
        self.depth_histogram[0] = self.depth_histogram.get(0, 0) + 1
        return 0

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def mean_depth(self) -> float:
        """Average derivation depth across all known nodes."""
        if not self.nodes:
            return 0.0
        return self._depth_total / self.nodes

    def mean_fan_in(self) -> float:
        """Average number of direct ancestors per node."""
        if not self.nodes:
            return 0.0
        return self.edges / self.nodes

    def depth_of(self, pname: PName) -> Optional[int]:
        """The ingest-time derivation depth of a known record, or ``None``."""
        return self._depth_of.get(pname.digest)

    def expected_reach(self) -> int:
        """Expected closure size of an average lineage probe.

        A node at depth ``d`` has at least ``d`` ancestors; with mean
        fan-in ``f`` the walked region widens by roughly that factor.
        The product is a deliberately rough but *cheap* estimate, capped
        at the node count (an estimate can never exceed the store).
        """
        if not self.nodes:
            return 0
        estimate = int(round(self.mean_depth() * max(1.0, self.mean_fan_in()))) + 1
        return min(self.nodes, estimate)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The collector as a plain dict (``client.stats()`` / CLI)."""
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "max_depth": self.max_depth,
            "max_fan_in": self.max_fan_in,
            "mean_depth": round(self.mean_depth(), 3),
            "mean_fan_in": round(self.mean_fan_in(), 3),
            "expected_reach": self.expected_reach(),
            "depth_histogram": dict(sorted(self.depth_histogram.items())),
        }
