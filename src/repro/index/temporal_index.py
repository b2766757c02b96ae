"""Temporal index over tuple-set time windows.

Tuple sets are "collections of readings grouped by some property,
typically time" (Section II), so nearly every query carries a time
constraint: "show me the heart rate from moment of arrival until now",
"aggregated over time to estimate the effects of changing Zone size".

:class:`TemporalIndex` maps time intervals (a tuple set's
``window_start``/``window_end``) to PName digests and answers which
tuple sets *overlap* a query interval -- exactly what
:class:`~repro.core.query.TimeWindowOverlaps` asks, closed interval
against closed interval, so the planner lets the probe answer alone.

The implementation keeps intervals in a list sorted by start time with
binary search on the start bound; for the workload sizes the benchmarks
use (10^4-10^5 windows) this is comfortably fast and, more importantly,
easy to verify.

An index restored from a checkpoint is checked whole and left unbuilt
(an :class:`_UnbuiltTemporalIndex`) until its first probe builds it and
it becomes a plain :class:`TemporalIndex` again; writes that reach it
first wait for that build.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import sub
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.attributes import Timestamp
from repro.core.provenance import PName
from repro.errors import ConfigurationError
from repro.index.sections import check_positions

__all__ = ["TemporalIndex"]


class TemporalIndex:
    """Maps time intervals to PNames."""

    #: False while a restored index waits for its first probe
    built = True

    def __init__(self) -> None:
        # Sorted list of (start_seconds, end_seconds, digest).
        self._intervals: List[Tuple[float, float, str]] = []
        self._max_duration = 0.0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, pname: PName, start: Timestamp, end: Timestamp) -> None:
        """Index ``pname`` under the closed interval [start, end]."""
        if end.seconds < start.seconds:
            raise ConfigurationError("interval end precedes its start")
        entry = (start.seconds, end.seconds, pname.digest)
        insort(self._intervals, entry)
        self._max_duration = max(self._max_duration, end.seconds - start.seconds)

    def __len__(self) -> int:
        return len(self._intervals)

    def snapshot(self, position_of: Dict[str, int]) -> dict:
        """The intervals column by column, each PName named by ``position_of`` its digest."""
        return {
            "starts": [start for start, _, _ in self._intervals],
            "ends": [end for _, end, _ in self._intervals],
            "positions": [position_of[digest] for _, _, digest in self._intervals],
        }

    def restore(self, state: dict, digests: Sequence[str]) -> None:
        """Adopt a :meth:`snapshot` into this empty index, unbuilt until its first probe.

        Raises, and changes nothing, on state that no snapshot produces.
        """
        starts, ends, positions = state["starts"], state["ends"], state["positions"]
        if not len(starts) == len(ends) == len(positions):
            raise ValueError("interval columns of unequal length")
        check_positions(positions, len(digests))
        starts, ends = list(map(float, starts)), list(map(float, ends))
        durations = list(map(sub, ends, starts))
        if durations and not min(durations) >= 0:
            raise ValueError("interval end precedes its start")
        self._section = (starts, ends, positions, digests, max(durations, default=0.0))
        self._tail: List[Tuple[float, float, str]] = []
        self.__class__ = _UnbuiltTemporalIndex

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def overlapping(self, start: Timestamp, end: Timestamp) -> Set[str]:
        """Digests whose interval overlaps [start, end] (closed intervals)."""
        begin, finish = self._visited(start, end)
        query_start = start.seconds
        return {
            digest for _, iv_end, digest in self._intervals[begin:finish] if iv_end >= query_start
        }

    def estimate_overlapping(self, start: Timestamp, end: Timestamp) -> int:
        """Upper bound on :meth:`overlapping`'s result size, in O(log n).

        Counts the intervals the scan would visit (start within
        ``[query start - max_duration, query end]``); some of those miss
        the window, so this over-estimates, which is safe for a planner
        deciding whether the index beats a full scan.
        """
        begin, finish = self._visited(start, end)
        return max(0, finish - begin)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _visited(self, start: Timestamp, end: Timestamp) -> Tuple[int, int]:
        """The slice of intervals an overlap scan must look at.

        Any overlapping interval starts at or before the query end and
        (because intervals are at most ``_max_duration`` long) at or
        after query start - max_duration.
        """
        if end.seconds < start.seconds:
            raise ConfigurationError("query end precedes its start")
        # The sentinels sort before / after every real entry sharing the start.
        begin = bisect_left(self._intervals, (start.seconds - self._max_duration, -float("inf"), ""))
        finish = bisect_left(self._intervals, (end.seconds, float("inf"), "\uffff"))
        return begin, finish


class _UnbuiltTemporalIndex(TemporalIndex):
    """A restored :class:`TemporalIndex` before its first probe.

    :meth:`add` keeps the interval for the build; a probe or a snapshot
    builds the checked section, adds the kept intervals, and turns the
    object into a plain :class:`TemporalIndex` -- from then on no call
    goes through this class.
    """

    built = False

    def add(self, pname: PName, start: Timestamp, end: Timestamp) -> None:
        if end.seconds < start.seconds:
            raise ConfigurationError("interval end precedes its start")
        self._tail.append((start.seconds, end.seconds, pname.digest))

    def __len__(self) -> int:
        return len(self._section[2]) + len(self._tail)

    def _build(self) -> None:
        starts, ends, positions, digests, max_duration = self._section
        tail = self._tail
        # Sorted once over the section and the tail: what the section's
        # sorted order plus one insort per kept interval would give.
        self._intervals = sorted([*zip(starts, ends, map(digests.__getitem__, positions)), *tail])
        self._max_duration = max([max_duration, *(end - start for start, end, _ in tail)])
        del self._section, self._tail
        self.__class__ = TemporalIndex

    def snapshot(self, position_of: Dict[str, int]) -> dict:
        self._build()
        return self.snapshot(position_of)

    def overlapping(self, start: Timestamp, end: Timestamp) -> Set[str]:
        self._build()
        return self.overlapping(start, end)

    def estimate_overlapping(self, start: Timestamp, end: Timestamp) -> int:
        self._build()
        return self.estimate_overlapping(start, end)
