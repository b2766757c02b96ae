"""Sliding and tumbling window aggregations over matched records.

The paper's consumers rarely want every record: a congestion monitor
wants "mean speed per city over each 5-minute window", a storm trigger
wants "count of gale readings in the last half hour".  A
:class:`WindowSpec` describes that reduction; a :class:`WindowAggregator`
maintains the open windows incrementally as matched records arrive on
the ingest path.

Windows are **event-time** windows over a timestamp attribute of the
provenance record (default ``window_start``, the attribute every
workload generator stamps).  The watermark is the largest event time
seen so far; a window closes -- and emits exactly one aggregate per
group -- when the watermark passes its end.  Records arriving behind the
watermark still land in any window that is open, but a window, once
emitted, is gone: ``late_records`` counts one per already-emitted window
a record missed, so the counter reflects exactly how short the emitted
aggregates ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.attributes import Timestamp, canonical_encode
from repro.core.provenance import ProvenanceRecord
from repro.errors import ConfigurationError

__all__ = ["AGGREGATES", "WindowSpec", "WindowAggregator"]

AGGREGATES = ("count", "sum", "mean", "min", "max")


@dataclass(frozen=True)
class WindowSpec:
    """What to aggregate, over which windows, grouped how.

    Parameters
    ----------
    size_seconds:
        Window length.
    slide_seconds:
        Distance between consecutive window starts; ``None`` (the
        default) makes the windows tumbling (slide == size).
    aggregate:
        One of ``count``, ``sum``, ``mean``, ``min``, ``max``.
    value_attr:
        Record attribute supplying the aggregated value; required for
        everything except ``count``.
    group_by:
        Optional record attribute whose value partitions each window
        into per-group aggregates (e.g. one mean per ``city``).
    time_attr:
        Record attribute supplying event time (a Timestamp or number).
    """

    size_seconds: float
    slide_seconds: Optional[float] = None
    aggregate: str = "count"
    value_attr: Optional[str] = None
    group_by: Optional[str] = None
    time_attr: str = "window_start"

    def __post_init__(self) -> None:
        if self.size_seconds <= 0:
            raise ConfigurationError("window size must be positive")
        if self.slide_seconds is not None and self.slide_seconds <= 0:
            raise ConfigurationError("window slide must be positive")
        if self.slide_seconds is not None and self.slide_seconds > self.size_seconds:
            raise ConfigurationError(
                "window slide must not exceed the window size (gaps would lose records)"
            )
        if self.aggregate not in AGGREGATES:
            raise ConfigurationError(
                f"unknown aggregate {self.aggregate!r}; expected one of {AGGREGATES}"
            )
        if self.aggregate != "count" and self.value_attr is None:
            raise ConfigurationError(f"aggregate {self.aggregate!r} needs value_attr")

    @property
    def slide(self) -> float:
        """Effective slide: the explicit one, or the size (tumbling)."""
        return self.slide_seconds if self.slide_seconds is not None else self.size_seconds


class _Accumulator:
    """Running count/sum/min/max for one (window, group) cell.

    ``count`` tallies every matched record (what the emitted event
    reports); value aggregates read only the ``samples`` that actually
    carried a usable value, so a record missing ``value_attr`` never
    dilutes a mean.
    """

    __slots__ = ("count", "samples", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.samples = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: Optional[float]) -> None:
        self.count += 1
        if value is None:
            return
        self.samples += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def result(self, aggregate: str) -> Optional[float]:
        if aggregate == "count":
            return float(self.count)
        if aggregate == "sum":
            return self.total
        if aggregate == "mean":
            return self.total / self.samples if self.samples else None
        if aggregate == "min":
            return self.minimum
        return self.maximum


class WindowAggregator:
    """Incremental evaluation of one :class:`WindowSpec`.

    :meth:`observe` folds one record in and returns the payloads of
    every window the advancing watermark closed, oldest first.  Each
    payload is ``(window_start, window_end, group, value, count)``;
    the engine wraps them into
    :class:`~repro.stream.subscription.WindowEvent` deliveries.
    """

    def __init__(self, spec: WindowSpec) -> None:
        self.spec = spec
        self.watermark: Optional[float] = None
        self.skipped_records = 0  # records lacking a usable event time
        self.late_records = 0  # records behind an already-emitted window
        self._emitted_until: Optional[float] = None  # ends of closed windows
        # window start -> group key -> accumulator (+ the display value)
        self._open: Dict[float, Dict[Optional[str], Tuple[object, _Accumulator]]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _as_seconds(value) -> Optional[float]:
        if isinstance(value, Timestamp):
            return value.seconds
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return None

    def _window_starts(self, event_time: float) -> List[float]:
        """Starts of every window the event time falls into."""
        spec = self.spec
        first = (event_time // spec.slide) * spec.slide
        starts = []
        start = first
        while start > event_time - spec.size_seconds:
            starts.append(start)
            start -= spec.slide
        return starts

    def observe(self, record: ProvenanceRecord) -> List[Tuple[float, float, object, Optional[float], int]]:
        """Fold one matched record in; return payloads of newly closed windows."""
        spec = self.spec
        event_time = self._as_seconds(record.get(spec.time_attr))
        if event_time is None:
            self.skipped_records += 1
            return []

        value: Optional[float] = None
        if spec.value_attr is not None:
            value = self._as_seconds(record.get(spec.value_attr))

        group_value: object = None
        group_key: Optional[str] = None
        if spec.group_by is not None:
            group_value = record.get(spec.group_by)
            group_key = canonical_encode(group_value) if group_value is not None else None

        for start in self._window_starts(event_time):
            if self._emitted_until is not None and start + spec.size_seconds <= self._emitted_until:
                # That window already closed and emitted without this
                # record: one late count per missed emission, so the
                # counter matches exactly how short the aggregates ran.
                self.late_records += 1
                continue
            cell = self._open.setdefault(start, {})
            if group_key not in cell:
                cell[group_key] = (group_value, _Accumulator())
            cell[group_key][1].add(value)

        if self.watermark is None or event_time > self.watermark:
            self.watermark = event_time
        return self._close_ripe()

    def _close_ripe(self) -> List[Tuple[float, float, object, Optional[float], int]]:
        """Emit every open window whose end the watermark has passed."""
        if self.watermark is None:
            return []
        spec = self.spec
        emitted: List[Tuple[float, float, object, Optional[float], int]] = []
        for start in sorted(self._open):
            end = start + spec.size_seconds
            if end > self.watermark:
                break
            emitted.extend(self._emit(start))
        return emitted

    def _emit(self, start: float) -> List[Tuple[float, float, object, Optional[float], int]]:
        spec = self.spec
        end = start + spec.size_seconds
        groups = self._open.pop(start)
        if self._emitted_until is None or end > self._emitted_until:
            self._emitted_until = end
        payloads = []
        for group_key in sorted(groups, key=lambda k: (k is None, k)):
            group_value, accumulator = groups[group_key]
            payloads.append(
                (start, end, group_value, accumulator.result(spec.aggregate), accumulator.count)
            )
        return payloads

    def flush(self) -> List[Tuple[float, float, object, Optional[float], int]]:
        """Force-close every open window (end of stream / unsubscribe)."""
        payloads = []
        for start in sorted(self._open):
            payloads.extend(self._emit(start))
        return payloads
