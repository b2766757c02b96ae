"""Grid-based spatial index over tuple-set locations.

"Sensor data is locale specific" (Section I) and some query classes are
inherently spatial: "a commuter investigating alternate routes will
likely search by sensor location", or combining data "geographically
with data from other cities".

:class:`SpatialIndex` buckets locations into fixed-size latitude /
longitude grid cells and answers radius queries by scanning the
candidate cells and filtering by exact distance -- the comparison
:class:`~repro.core.query.NearLocation` makes, so the planner lets the
probe answer alone.  A grid is entirely sufficient here: tuple sets have
one representative location (the network centroid), counts are modest,
and the benchmarks care about *which* architecture touches the index,
not about R-tree constants.

Sensors stay put, so many tuple sets share one location: a cell holds
its distinct *places*, each with the digests recorded there, and a
radius query measures a place once however many tuple sets it carries.

An index restored from a checkpoint is checked whole and left unbuilt
(an :class:`_UnbuiltSpatialIndex`) until its first probe builds it and
it becomes a plain :class:`SpatialIndex` again; writes that reach it
first wait for that build.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.attributes import GeoPoint
from repro.core.provenance import PName
from repro.errors import ConfigurationError
from repro.index.sections import check_positions

__all__ = ["SpatialIndex"]


class SpatialIndex:
    """Maps geographic points to PName digests using a fixed-resolution grid.

    Parameters
    ----------
    cell_degrees:
        Width/height of a grid cell in degrees.  The default (0.5) is a
        few tens of kilometres at mid latitudes -- city scale, matching
        the paper's "Boston traffic data belongs in Boston" granularity.
    """

    #: False while a restored index waits for its first probe
    built = True

    def __init__(self, cell_degrees: float = 0.5) -> None:
        if cell_degrees <= 0:
            raise ConfigurationError("cell_degrees must be positive")
        self._cell = float(cell_degrees)
        # cell -> (latitude, longitude) -> the place's point and the digests
        # located there (keyed by the bare coordinates: a tuple of floats
        # hashes and compares in C, a GeoPoint through two Python calls)
        self._cells: Dict[Tuple[int, int], Dict[Tuple[float, float], Tuple[GeoPoint, Set[str]]]] = {}
        # cell -> how many digests its places hold (the planner's estimate)
        self._population: Dict[Tuple[int, int], int] = {}
        self._points: Dict[str, GeoPoint] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, pname: PName, location: GeoPoint) -> None:
        """Index ``pname`` at ``location`` (re-adding moves it)."""
        digest = pname.digest
        previous = self._points.get(digest)
        if previous is not None:
            cell, place = self._cell_of(previous), (previous.latitude, previous.longitude)
            bucket = self._cells[cell][place][1]
            bucket.discard(digest)
            if not bucket:
                # (a place nobody is at must not be measured, nor answer)
                del self._cells[cell][place]
            self._population[cell] -= 1
        self._points[digest] = location
        cell, place = self._cell_of(location), (location.latitude, location.longitude)
        held = self._cells.setdefault(cell, {}).get(place)
        if held is None:
            self._cells[cell][place] = (location, {digest})
        else:
            held[1].add(digest)
        self._population[cell] = self._population.get(cell, 0) + 1

    def __len__(self) -> int:
        return len(self._points)

    def snapshot(self, position_of: Dict[str, int]) -> dict:
        """The points column by column, each PName named by ``position_of`` its digest."""
        return {
            "lats": [point.latitude for point in self._points.values()],
            "lons": [point.longitude for point in self._points.values()],
            "positions": [position_of[digest] for digest in self._points],
        }

    def restore(self, state: dict, digests: Sequence[str]) -> None:
        """Adopt a :meth:`snapshot` into this empty index, unbuilt until its first probe.

        Raises, and changes nothing, on state that no snapshot produces.
        """
        lats, lons, positions = state["lats"], state["lons"], state["positions"]
        if not len(lats) == len(lons) == len(positions):
            raise ValueError("point columns of unequal length")
        check_positions(positions, len(digests))
        _check_degrees(lats, 90.0, "latitude")
        _check_degrees(lons, 180.0, "longitude")
        self._section = (lats, lons, positions, digests)
        self._tail: List[Tuple[PName, GeoPoint]] = []
        self.__class__ = _UnbuiltSpatialIndex

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def within_radius(self, centre: GeoPoint, radius_km: float) -> Set[str]:
        """Digests indexed within ``radius_km`` of ``centre``."""
        if radius_km < 0:
            raise ConfigurationError("radius_km must be non-negative")
        result: Set[str] = set()
        for cell in self._candidate_cells(centre, radius_km):
            places = self._cells.get(cell)
            if places:
                for place, bucket in places.values():
                    if place.distance_km(centre) <= radius_km:
                        result |= bucket
        return result

    def estimate_within(self, centre: GeoPoint, radius_km: float) -> int:
        """Upper bound on :meth:`within_radius`'s result size.

        Sums the populations of the candidate grid cells without
        computing a single great-circle distance, so the planner can
        afford it while choosing a path.
        """
        if radius_km < 0:
            raise ConfigurationError("radius_km must be non-negative")
        population = self._population
        return sum(population.get(cell, 0) for cell in self._candidate_cells(centre, radius_km))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cell_of(self, point: GeoPoint) -> Tuple[int, int]:
        return (
            int(math.floor(point.latitude / self._cell)),
            int(math.floor(point.longitude / self._cell)),
        )

    def _candidate_cells(self, centre: GeoPoint, radius_km: float) -> Iterable[Tuple[int, int]]:
        # Convert the radius into a conservative number of cells.  One
        # degree of latitude is ~111 km; a degree of longitude shrinks
        # with latitude, so the longitude span must be widened by
        # 1/cos(latitude) to stay conservative.
        lat_degrees = radius_km / 111.0 if radius_km > 0 else 0.0
        cos_lat = max(0.05, math.cos(math.radians(centre.latitude)))
        lon_degrees = lat_degrees / cos_lat
        lat_span = max(1, int(math.ceil(lat_degrees / self._cell)) + 1)
        lon_span = max(1, int(math.ceil(lon_degrees / self._cell)) + 1)
        centre_cell = self._cell_of(centre)
        for d_lat in range(-lat_span, lat_span + 1):
            for d_lon in range(-lon_span, lon_span + 1):
                yield (centre_cell[0] + d_lat, centre_cell[1] + d_lon)


def _check_degrees(values: Sequence, limit: float, name: str) -> None:
    """Raise what a :class:`GeoPoint` of any of ``values`` outside ±``limit`` would
    (``TypeError`` for a value that is no number)."""
    if values and (min(values) < -limit or max(values) > limit or any(map(math.isnan, values))):
        outside = next(value for value in values if not -limit <= value <= limit)
        raise ConfigurationError(f"{name} out of range: {outside}")


class _UnbuiltSpatialIndex(SpatialIndex):
    """A restored :class:`SpatialIndex` before its first probe.

    :meth:`add` keeps the move for the build; a probe, a length or a
    snapshot builds the checked section, replays the kept moves in order,
    and turns the object into a plain :class:`SpatialIndex` -- from then
    on no call goes through this class.
    """

    built = False

    def add(self, pname: PName, location: GeoPoint) -> None:
        self._tail.append((pname, location))

    def _build(self) -> None:
        (lats, lons, positions, digests), tail = self._section, self._tail
        # One (immutable) point per distinct place: sensors stay put.
        places = {place: GeoPoint(float(place[0]), float(place[1])) for place in set(zip(lats, lons))}
        points = {digests[at]: places[place] for at, place in zip(positions, zip(lats, lons))}
        cells: Dict[Tuple[int, int], dict] = {}
        # One bucket per place, found by the shared point's identity (two
        # spellings of one place, 1 and 1.0, share the bucket as well).
        bucket_of = {
            id(point): cells.setdefault(self._cell_of(point), {}).setdefault(
                (point.latitude, point.longitude), (point, set())
            )[1]
            for point in places.values()
        }
        for digest, point in points.items():
            bucket_of[id(point)].add(digest)
        population = {
            cell: sum(len(bucket) for _, bucket in held.values()) for cell, held in cells.items()
        }
        self._points, self._cells, self._population = points, cells, population
        del self._section, self._tail
        self.__class__ = SpatialIndex
        for pname, location in tail:
            self.add(pname, location)

    def __len__(self) -> int:
        self._build()
        return len(self)

    def snapshot(self, position_of: Dict[str, int]) -> dict:
        self._build()
        return self.snapshot(position_of)

    def within_radius(self, centre: GeoPoint, radius_km: float) -> Set[str]:
        self._build()
        return self.within_radius(centre, radius_km)

    def estimate_within(self, centre: GeoPoint, radius_km: float) -> int:
        self._build()
        return self.estimate_within(centre, radius_km)
