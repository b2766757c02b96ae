"""A bounded in-process time-series store over the metrics registry.

One :class:`TimeSeriesStore` holds a fixed-interval ring per instrument:
time is bucketed into ``interval_s``-wide slots and each named series
keeps its last ``retention`` slots (oldest evicted first), so memory is
bounded by ``series x retention`` regardless of run length.  Three
series kinds mirror the registry's instruments:

* **gauge** -- the slot holds the last value observed in the interval,
* **counter** -- the slot holds the *cumulative* value at sample time;
  rates derive at read time (:meth:`TimeSeriesStore.rate`), robust to
  counter resets,
* **histogram** -- the slot holds the :class:`HistogramState` *delta*
  between consecutive cumulative scrapes; window percentiles merge the
  in-window deltas (:meth:`TimeSeriesStore.window_state`), so
  percentile-over-window answers are exact within the histogram's
  existing <= ~5% bucket error.

The store is deliberately **clock-agnostic**: every observation carries
its own timestamp ``t`` (seconds, any epoch).  The daemon's background
sampler feeds wall-clock time; the sim kernel feeds its virtual clock --
both produce the same :meth:`snapshot` schema, which is what lets one
alert rule set and one exposition format serve real and simulated
deployments alike.

Thread-safety: one lock around every mutation/read.  Samplers call at
human timescales (~1 Hz), so contention is negligible.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import HistogramState

__all__ = ["TimeSeriesStore"]

KINDS = ("gauge", "counter", "histogram")


class _Series:
    """One named ring of ``[slot_index, value]`` points (oldest first)."""

    __slots__ = ("name", "kind", "points", "last_cumulative")

    def __init__(self, name: str, kind: str, retention: int) -> None:
        self.name = name
        self.kind = kind
        self.points: deque = deque(maxlen=retention)
        #: the previous cumulative HistogramState (histogram series only)
        self.last_cumulative: Optional[HistogramState] = None

    def observe(self, slot: int, value) -> None:
        if self.points and self.points[-1][0] == slot:
            last = self.points[-1]
            if self.kind == "histogram":
                last[1] = last[1].merge(value)
            else:
                last[1] = value
        else:
            self.points.append([slot, value])


class TimeSeriesStore:
    def __init__(self, interval_s: float = 1.0, retention: int = 600) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if retention < 2:
            raise ValueError("retention must be at least 2 slots")
        self.interval_s = float(interval_s)
        self.retention = int(retention)
        self._lock = threading.Lock()
        self._series: Dict[str, _Series] = {}

    # -- writing ---------------------------------------------------------
    def _slot(self, t: float) -> int:
        return int(t // self.interval_s)

    def _get(self, name: str, kind: str) -> _Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(name, kind, self.retention)
        elif series.kind != kind:
            raise ValueError(
                f"series {name!r} is a {series.kind}, observed as {kind}"
            )
        return series

    def observe_gauge(self, name: str, t: float, value: float) -> None:
        with self._lock:
            self._get(name, "gauge").observe(self._slot(t), float(value))

    def observe_counter(self, name: str, t: float, cumulative: float) -> None:
        """Record a counter's *cumulative* value at time ``t``."""
        with self._lock:
            self._get(name, "counter").observe(self._slot(t), float(cumulative))

    def observe_histogram(self, name: str, t: float, state: HistogramState) -> None:
        """Record a histogram's *cumulative* state at time ``t``.

        The stored point is the delta against the previous scrape, i.e.
        only the observations that landed during this interval.
        """
        with self._lock:
            series = self._get(name, "histogram")
            earlier = series.last_cumulative
            delta = state if earlier is None else state.delta(earlier)
            series.last_cumulative = state
            series.observe(self._slot(t), delta)

    # -- reading ---------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def kind(self, name: str) -> Optional[str]:
        with self._lock:
            series = self._series.get(name)
            return series.kind if series else None

    def points(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[float, object]]:
        """``(t, value)`` points for ``name`` with ``start <= t <= end``.

        ``t`` is the slot's start time; histogram values are
        :class:`HistogramState` interval deltas.
        """
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return []
            out = []
            for slot, value in series.points:
                t = slot * self.interval_s
                if start is not None and t < start:
                    continue
                if end is not None and t > end:
                    continue
                out.append((t, value))
            return out

    def latest(self, name: str) -> Optional[Tuple[float, object]]:
        with self._lock:
            series = self._series.get(name)
            if series is None or not series.points:
                return None
            slot, value = series.points[-1]
            return (slot * self.interval_s, value)

    def _window(self, name: str, window_s: Optional[float], now: Optional[float]):
        series = self._series.get(name)
        if series is None or not series.points:
            return None, []
        if now is None:
            now = series.points[-1][0] * self.interval_s
        if window_s is None:
            return series, list(series.points)
        first = self._slot(now - window_s)
        return series, [p for p in series.points if p[0] >= first]

    def rate(
        self,
        name: str,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """A counter's per-second rate over the window (default: all
        retained points).  Sums positive increments between consecutive
        samples, so a counter reset costs one interval, not a negative
        spike.  None with fewer than two in-window points.
        """
        with self._lock:
            series, points = self._window(name, window_s, now)
            if series is None or series.kind != "counter" or len(points) < 2:
                return None
            increase = 0.0
            for (_, before), (_, after) in zip(points, points[1:]):
                if after > before:
                    increase += after - before
            span_s = (points[-1][0] - points[0][0]) * self.interval_s
            if span_s <= 0:
                return None
            return increase / span_s

    def window_state(
        self,
        name: str,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[HistogramState]:
        """The merged :class:`HistogramState` of every in-window interval
        delta -- the distribution of exactly the window's observations."""
        with self._lock:
            series, points = self._window(name, window_s, now)
            if series is None or series.kind != "histogram" or not points:
                return None
            merged = HistogramState()
            for _, state in points:
                merged = merged.merge(state)
            return merged

    def quantile(
        self,
        name: str,
        q: float,
        window_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """A histogram series' ``q``-quantile over the window."""
        state = self.window_state(name, window_s, now)
        return state.quantile(q) if state is not None and not state.empty else None

    def snapshot(self, names: Optional[List[str]] = None) -> dict:
        """The whole store as one JSON-safe document.

        Stable schema (shared verbatim by real daemons and sim runs)::

            {"interval_s": float, "retention": int,
             "series": {name: {"kind": gauge|counter|histogram,
                               "points": [[t, value-or-summary], ...]}}}

        Histogram points carry the interval delta's ``summary()`` dict.
        """
        with self._lock:
            wanted = self._series if names is None else {
                n: s for n, s in self._series.items() if n in set(names)
            }
            series_out = {}
            for name in sorted(wanted):
                series = wanted[name]
                points = []
                for slot, value in series.points:
                    t = slot * self.interval_s
                    if series.kind == "histogram":
                        points.append([t, value.summary()])
                    else:
                        points.append([t, value])
                series_out[name] = {"kind": series.kind, "points": points}
        return {
            "interval_s": self.interval_s,
            "retention": self.retention,
            "series": series_out,
        }
