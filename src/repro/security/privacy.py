"""Privacy-preserving aggregation with provenance.

Section V asks: "Much of this data is valuable even when aggregated to
preserve privacy.  What degree of aggregation is necessary?  How does
one represent the provenance of such aggregates?"

This module gives both questions concrete, testable answers:

* :class:`PrivacyAggregator` groups tuple sets, suppresses any group
  whose population falls below ``k`` (k-anonymity-style suppression --
  the "degree of aggregation necessary"), strips the identifying
  attributes, and emits summary tuple sets;
* the provenance of each aggregate lists every contributing tuple set as
  an ancestor and records the aggregation agent, its ``k`` and the
  suppressed attribute names -- so the aggregate is auditable without
  re-identifying anyone (answering "how does one represent the
  provenance of such aggregates").
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeValue, Timestamp
from repro.core.provenance import Agent, merge_provenance
from repro.core.tupleset import SensorReading, TupleSet
from repro.errors import ConfigurationError

__all__ = ["AggregationReport", "PrivacyAggregator"]


@dataclass
class AggregationReport:
    """What an aggregation pass produced and what it had to suppress."""

    aggregates: List[TupleSet] = field(default_factory=list)
    suppressed_groups: int = 0
    suppressed_inputs: int = 0
    groups_published: int = 0


class PrivacyAggregator:
    """Aggregates sensitive tuple sets into k-anonymous summaries.

    Parameters
    ----------
    group_by:
        Attribute names whose values define a group (e.g. ``("incident",)``
        groups all patients at one incident).
    identifying_attributes:
        Attributes stripped from the aggregate's provenance (e.g.
        ``("patient", "emt")``).
    k:
        Minimum number of *distinct identities* a group must contain to
        be published.
    identity_attribute:
        The attribute that defines an identity for counting against
        ``k`` (default: the first identifying attribute).
    """

    def __init__(
        self,
        group_by: Sequence[str],
        identifying_attributes: Sequence[str],
        k: int = 3,
        identity_attribute: Optional[str] = None,
        agent_version: str = "1.0",
    ) -> None:
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if not group_by:
            raise ConfigurationError("group_by must list at least one attribute")
        if not identifying_attributes:
            raise ConfigurationError("identifying_attributes must list at least one attribute")
        self.group_by = list(group_by)
        self.identifying_attributes = list(identifying_attributes)
        self.k = k
        self.identity_attribute = identity_attribute or self.identifying_attributes[0]
        self.agent = Agent(
            "program",
            "privacy-aggregator",
            agent_version,
            metadata={"k": k, "suppressed": tuple(self.identifying_attributes)},
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(self, tuple_sets: Sequence[TupleSet]) -> AggregationReport:
        """Group, suppress small groups, and emit privacy-preserving aggregates."""
        report = AggregationReport()
        groups = self._group(tuple_sets)
        for key, members in sorted(groups.items()):
            identities = {
                str(member.provenance.get(self.identity_attribute))
                for member in members
                if member.provenance.get(self.identity_attribute) is not None
            }
            if len(identities) < self.k:
                report.suppressed_groups += 1
                report.suppressed_inputs += len(members)
                continue
            report.aggregates.append(self._summarise(key, members, len(identities)))
            report.groups_published += 1
        return report

    def _group(self, tuple_sets: Sequence[TupleSet]) -> Dict[Tuple, List[TupleSet]]:
        groups: Dict[Tuple, List[TupleSet]] = {}
        for tuple_set in tuple_sets:
            key = tuple(
                str(tuple_set.provenance.get(name)) for name in self.group_by
            )
            groups.setdefault(key, []).append(tuple_set)
        return groups

    def _summarise(self, key: Tuple, members: Sequence[TupleSet], population: int) -> TupleSet:
        samples: Dict[str, List[float]] = {}
        latest: Optional[Timestamp] = None
        for member in members:
            for reading in member.readings:
                if latest is None or reading.timestamp.seconds > latest.seconds:
                    latest = reading.timestamp
                for name, value in reading.values.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    samples.setdefault(name, []).append(float(value))

        summary_values: Dict[str, AttributeValue] = {"population": population}
        for name, values in samples.items():
            summary_values[f"{name}_mean"] = statistics.fmean(values)
            summary_values[f"{name}_count"] = len(values)

        attributes: Dict[str, AttributeValue] = {
            "stage": "privacy-aggregate",
            "k": self.k,
            "population": population,
            "suppressed_attributes": tuple(self.identifying_attributes),
        }
        for name, value in zip(self.group_by, key):
            attributes[name] = value
        # Carry non-identifying context from the first member.
        first = members[0].provenance
        for name in ("domain", "location", "window_start", "window_end"):
            value = first.get(name)
            if value is not None and name not in attributes:
                attributes[name] = value
        for name in self.identifying_attributes:
            attributes.pop(name, None)

        record = merge_provenance(attributes, [m.provenance for m in members], agent=self.agent)
        readings: List[SensorReading] = []
        if latest is not None and summary_values:
            readings.append(
                SensorReading(
                    sensor_id="privacy-aggregator:summary",
                    timestamp=latest,
                    values=summary_values,
                )
            )
        return TupleSet(readings, record)
