"""Grid-based spatial index over tuple-set locations.

"Sensor data is locale specific" (Section I) and some query classes are
inherently spatial: "a commuter investigating alternate routes will
likely search by sensor location", or combining data "geographically
with data from other cities".

:class:`SpatialIndex` buckets locations into fixed-size latitude /
longitude grid cells and answers radius and bounding-box queries by
scanning the candidate cells and filtering by exact distance.  A grid is
entirely sufficient here: tuple sets have one representative location
(the network centroid), counts are modest, and the benchmarks care about
*which* architecture touches the index, not about R-tree constants.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.attributes import GeoPoint
from repro.core.provenance import PName
from repro.errors import ConfigurationError

__all__ = ["SpatialIndex"]


class SpatialIndex:
    """Maps geographic points to PNames using a fixed-resolution grid.

    Parameters
    ----------
    cell_degrees:
        Width/height of a grid cell in degrees.  The default (0.5) is a
        few tens of kilometres at mid latitudes -- city scale, matching
        the paper's "Boston traffic data belongs in Boston" granularity.
    """

    def __init__(self, cell_degrees: float = 0.5) -> None:
        if cell_degrees <= 0:
            raise ConfigurationError("cell_degrees must be positive")
        self._cell = float(cell_degrees)
        self._cells: Dict[Tuple[int, int], Set[str]] = {}
        self._points: Dict[str, GeoPoint] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, pname: PName, location: GeoPoint) -> None:
        """Index ``pname`` at ``location`` (re-adding moves it)."""
        digest = pname.digest
        previous = self._points.get(digest)
        if previous is not None:
            self._cells.get(self._cell_of(previous), set()).discard(digest)
        self._points[digest] = location
        self._cells.setdefault(self._cell_of(location), set()).add(digest)

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
        """Adopt a :meth:`snapshot` into this empty index; raises, and changes
        nothing, on state that no snapshot produces."""
        lats, lons, positions = state["lats"], state["lons"], state["positions"]
        if not len(lats) == len(lons) == len(positions):
            raise ValueError("point columns of unequal length")
        if positions and min(positions) < 0:
            raise ValueError("negative position")
        # One (validated, immutable) point per distinct place: sensors stay put.
        places = {place: GeoPoint(float(place[0]), float(place[1])) for place in set(zip(lats, lons))}
        points = {digests[at]: places[place] for at, place in zip(positions, zip(lats, lons))}
        cells: Dict[Tuple[int, int], Set[str]] = {}
        for digest, point in points.items():
            cells.setdefault(self._cell_of(point), set()).add(digest)
        self._points, self._cells = points, cells

    def location_of(self, pname: PName) -> Optional[GeoPoint]:
        """The indexed location of ``pname``, or None when not indexed."""
        return self._points.get(pname.digest)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def within_radius(self, centre: GeoPoint, radius_km: float) -> Set[PName]:
        """PNames indexed within ``radius_km`` of ``centre``."""
        if radius_km < 0:
            raise ConfigurationError("radius_km must be non-negative")
        result: Set[PName] = set()
        for digest in self._candidates(centre, radius_km):
            if self._points[digest].distance_km(centre) <= radius_km:
                result.add(PName(digest))
        return result

    def in_box(
        self,
        south_west: GeoPoint,
        north_east: GeoPoint,
    ) -> Set[PName]:
        """PNames inside the latitude/longitude box (inclusive)."""
        if north_east.latitude < south_west.latitude:
            raise ConfigurationError("box north edge is south of its south edge")
        result: Set[PName] = set()
        for digest, point in self._points.items():
            if (
                south_west.latitude <= point.latitude <= north_east.latitude
                and self._lon_between(point.longitude, south_west.longitude, north_east.longitude)
            ):
                result.add(PName(digest))
        return result

    def estimate_within(self, centre: GeoPoint, radius_km: float) -> int:
        """Upper bound on :meth:`within_radius`'s result size.

        Sums the populations of the candidate grid cells without
        computing a single great-circle distance, so the planner can
        afford it while choosing a path.
        """
        if radius_km < 0:
            raise ConfigurationError("radius_km must be non-negative")
        return sum(
            len(self._cells.get(cell, ())) for cell in self._candidate_cells(centre, radius_km)
        )

    def nearest(self, centre: GeoPoint, count: int = 1) -> List[PName]:
        """The ``count`` indexed PNames closest to ``centre``."""
        if count <= 0:
            raise ConfigurationError("count must be positive")
        ranked = sorted(
            self._points.items(), key=lambda item: item[1].distance_km(centre)
        )
        return [PName(digest) for digest, _ in ranked[:count]]

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

    def _candidates(self, centre: GeoPoint, radius_km: float) -> Iterable[str]:
        for cell in self._candidate_cells(centre, radius_km):
            for digest in self._cells.get(cell, ()):  # pragma: no branch
                yield digest

    @staticmethod
    def _lon_between(lon: float, west: float, east: float) -> bool:
        if west <= east:
            return west <= lon <= east
        # Box crosses the antimeridian.
        return lon >= west or lon <= east
