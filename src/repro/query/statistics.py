"""Ingest-maintained statistics the cost-based planner estimates from.

A planner is only as good as its cardinality estimates, and estimates
must be cheap -- far cheaper than running any candidate plan.  The
:class:`Statistics` collector therefore never scans anything: the store
feeds it one :meth:`observe` call per ingested record, and everything
else is a counter read or an O(log n) bisection delegated to the indexes
it shares with the store.  Nothing ever rebuilds the counters from the
records: attributes are immutable and every record arrives by ingest, so
the incremental counters are the ones a rebuild would produce (removal
and annotation re-count nothing).  A reopened store adopts them from the
index checkpoint or replays them.

What it knows:

* total record count,
* per-attribute record counts and (via the attribute index) distinct
  value counts,
* the overall time span covered by indexed time windows,
* how many records carry an indexable location,
* the shape of the provenance DAG (depth histogram, fan-in), via the
  shared :class:`~repro.lineage.stats.GraphStatistics` collector, which
  is what prices the lineage reachability probes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.attributes import GeoPoint, Timestamp
from repro.core.provenance import ProvenanceRecord
from repro.index.attribute_index import AttributeIndex
from repro.index.spatial_index import SpatialIndex
from repro.index.temporal_index import TemporalIndex

__all__ = ["Statistics"]


class Statistics:
    """Per-store statistics, updated on every ingest.

    Parameters
    ----------
    attribute_index / temporal_index / spatial_index:
        The store's live indexes.  The collector consults them for
        distinct-value counts and probe-size estimates; it maintains its
        own record/attribute counters so estimates stay O(1) even when
        an index is restricted to a subset of attributes.
    graph_statistics:
        The store's :class:`~repro.lineage.stats.GraphStatistics`
        (lineage-probe estimates); a private collector is created when
        none is shared.
    """

    def __init__(
        self,
        attribute_index: AttributeIndex,
        temporal_index: TemporalIndex,
        spatial_index: SpatialIndex,
        graph_statistics=None,
    ) -> None:
        self._attribute_index = attribute_index
        self._temporal_index = temporal_index
        self._spatial_index = spatial_index
        if graph_statistics is None:
            from repro.lineage.stats import GraphStatistics

            graph_statistics = GraphStatistics()
        self.graph = graph_statistics
        self.record_count = 0
        #: attribute name -> number of records carrying it
        self.attribute_counts: Dict[str, int] = {}
        self._window_min: Optional[float] = None
        self._window_max: Optional[float] = None
        self.windowed_count = 0
        self.located_count = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def observe(self, record: ProvenanceRecord) -> None:
        """Fold one freshly ingested record into the counters."""
        self.record_count += 1
        for name in record.attributes:
            self.attribute_counts[name] = self.attribute_counts.get(name, 0) + 1
        start = record.get("window_start")
        end = record.get("window_end")
        if isinstance(start, Timestamp) and isinstance(end, Timestamp):
            self.windowed_count += 1
            if self._window_min is None or start.seconds < self._window_min:
                self._window_min = start.seconds
            if self._window_max is None or end.seconds > self._window_max:
                self._window_max = end.seconds
        if isinstance(record.get("location"), GeoPoint):
            self.located_count += 1

    def checkpoint(self) -> dict:
        """The counters :meth:`observe` maintains, as JSON-ready data (not the shared graph collector's)."""
        return {
            "record_count": self.record_count,
            "attribute_counts": self.attribute_counts,
            "window": [self._window_min, self._window_max],
            "windowed_count": self.windowed_count,
            "located_count": self.located_count,
        }

    def restore(self, state: dict) -> None:
        """Adopt a :meth:`checkpoint`; raises on state that none produces."""
        counts = {str(name): int(count) for name, count in state["attribute_counts"].items()}
        window_min, window_max = (None if bound is None else float(bound) for bound in state["window"])
        self.record_count = int(state["record_count"])
        self.windowed_count = int(state["windowed_count"])
        self.located_count = int(state["located_count"])
        self.attribute_counts = counts
        self._window_min, self._window_max = window_min, window_max

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def distinct_count(self, name: str) -> int:
        """Distinct indexed values of attribute ``name``."""
        return self._attribute_index.cardinality(name)

    def time_span(self) -> Optional[Tuple[Timestamp, Timestamp]]:
        """(earliest window start, latest window end), or None when unwindowed."""
        if self._window_min is None or self._window_max is None:
            return None
        return (Timestamp(self._window_min), Timestamp(self._window_max))

    def snapshot(self) -> dict:
        """The collector as a plain dict (exposed through ``client.stats()``)."""
        span = self.time_span()
        return {
            "record_count": self.record_count,
            "attributes": len(self.attribute_counts),
            "distinct_counts": {
                name: self.distinct_count(name) for name in sorted(self.attribute_counts)
            },
            "windowed_records": self.windowed_count,
            "located_records": self.located_count,
            "time_span": (
                None if span is None else (span[0].seconds, span[1].seconds)
            ),
            "graph": self.graph.snapshot(),
        }
