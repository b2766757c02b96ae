"""The Section IV evaluation criteria as measurable quantities.

The paper names six criteria -- scalability, reliability, query result
quality, usability, speed, resource consumption -- and argues about them
qualitatively.  This module pins each to a number the harness can
actually produce:

* **speed** -- mean latency of attribute queries and of transitive
  closure queries (milliseconds of simulated network + processing time);
* **scalability** -- publish cost (messages and bytes per published
  tuple set) and, for the models with explicit capacity limits, the
  offered load at which they saturate;
* **resource consumption** -- total network bytes, split by operation
  kind;
* **query result quality** -- precision and recall against a ground
  truth oracle (a single local PASS holding everything);
* **reliability** -- whether data and provenance survive injected
  failures (crash recovery, dangling index links, lost replicas);
* **usability** -- which query classes the model supports at all
  (attribute, range/spatial, lineage), since a model that refuses
  transitive closure pushes that work back onto the user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.provenance import PName
from repro.sim.stats import latency_summary, percentile

__all__ = [
    "precision_recall",
    "f1_score",
    "LatencySample",
    "CriteriaScores",
    "mean",
    "percentile",
    "latency_summary",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (keeps report code simple)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def precision_recall(
    returned: Iterable[PName], relevant: Iterable[PName]
) -> Tuple[float, float]:
    """Information-retrieval precision and recall (Section IV's definitions).

    Precision: fraction of returned results that are relevant.
    Recall: fraction of relevant results that were returned.
    Both are 1.0 when both sets are empty (a correct empty answer).
    """
    returned_set = {p.digest for p in returned}
    relevant_set = {p.digest for p in relevant}
    if not returned_set and not relevant_set:
        return 1.0, 1.0
    true_positives = len(returned_set & relevant_set)
    precision = true_positives / len(returned_set) if returned_set else 1.0
    recall = true_positives / len(relevant_set) if relevant_set else 1.0
    return precision, recall


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class LatencySample:
    """One measured operation."""

    latency_ms: float
    messages: int
    bytes: int


@dataclass
class CriteriaScores:
    """Everything measured for one architecture model on one workload."""

    model: str
    publish_samples: List[LatencySample] = field(default_factory=list)
    query_samples: List[LatencySample] = field(default_factory=list)
    lineage_samples: List[LatencySample] = field(default_factory=list)
    precision: float = 1.0
    recall: float = 1.0
    supports_lineage: bool = True
    supports_attribute_queries: bool = True
    placement_distance_km: Optional[float] = None
    reliability_notes: List[str] = field(default_factory=list)

    # -- derived metrics -------------------------------------------------------
    def publish_latency_ms(self) -> float:
        """Mean latency to publish one tuple set."""
        return mean([sample.latency_ms for sample in self.publish_samples])

    def publish_bytes(self) -> float:
        """Mean network bytes per published tuple set."""
        return mean([sample.bytes for sample in self.publish_samples])

    def publish_messages(self) -> float:
        """Mean messages per published tuple set."""
        return mean([sample.messages for sample in self.publish_samples])

    def query_latency_ms(self) -> float:
        """Mean latency of attribute queries."""
        return mean([sample.latency_ms for sample in self.query_samples])

    # -- latency distributions (p50/p95/p99 alongside the means) --------------
    def query_latency_percentiles(self) -> Dict[str, float]:
        """Attribute-query latency distribution: count/mean/p50/p95/p99/max."""
        return latency_summary([sample.latency_ms for sample in self.query_samples])

    def lineage_latency_ms(self) -> Optional[float]:
        """Mean latency of closure queries; None when the model refuses them."""
        if not self.supports_lineage:
            return None
        return mean([sample.latency_ms for sample in self.lineage_samples])

    def usability_score(self) -> int:
        """How many of the paper's query classes the model supports (0-2)."""
        return int(self.supports_attribute_queries) + int(self.supports_lineage)

    def as_row(self) -> Dict[str, object]:
        """Flatten to the row format the report tables use."""
        lineage = self.lineage_latency_ms()
        query_distribution = self.query_latency_percentiles()
        return {
            "model": self.model,
            "publish_ms": round(self.publish_latency_ms(), 3),
            "publish_msgs": round(self.publish_messages(), 2),
            "publish_bytes": round(self.publish_bytes(), 1),
            "query_ms": round(self.query_latency_ms(), 3),
            "query_p95_ms": query_distribution["p95"],
            "query_p99_ms": query_distribution["p99"],
            "closure_ms": round(lineage, 3) if lineage is not None else "unsupported",
            "precision": round(self.precision, 3),
            "recall": round(self.recall, 3),
            "placement_km": (
                round(self.placement_distance_km, 1)
                if self.placement_distance_km is not None
                else "-"
            ),
            "usability": self.usability_score(),
        }
