"""Geographic topology of storage/consumer sites.

The paper's Section III-D requirements are about *where* things are:
"storage should be near the sensors", "Boston traffic data belongs in
Boston, not in Singapore or even Seattle", and the resource-consumption
criterion of Section IV charges architectures for the network traffic
they generate.

:class:`Site` is a named participant (a sensor-network gateway, a data
warehouse, a university consumer...) with a geographic location.
:class:`Topology` holds the sites and converts geography into link cost:
latency is a propagation component proportional to great-circle distance
plus a fixed per-hop overhead, which is all the fidelity the
architecture comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.attributes import GeoPoint
from repro.errors import ConfigurationError, UnknownEntityError

__all__ = ["Site", "Topology"]


@dataclass(frozen=True)
class Site:
    """A participant in the distributed system.

    Attributes
    ----------
    name:
        Unique site name.
    location:
        Geographic position, used for latency and placement-distance
        accounting.
    kind:
        Free-form role label: ``"sensor-gateway"``, ``"warehouse"``,
        ``"consumer"`` -- used by reports, not by the mechanics.
    stable:
        Whether this participant is a stable, permanent host (Section
        IV-B) or a churn-prone one (Section IV-C); the DHT model marks
        its participants unstable.
    """

    name: str
    location: GeoPoint
    kind: str = "storage"
    stable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("site name must be non-empty")


class Topology:
    """The set of sites plus the latency model between them.

    Parameters
    ----------
    hop_latency_ms:
        Fixed per-message overhead (software + last-mile), applied to
        every message.
    ms_per_km:
        Propagation delay per great-circle kilometre.  The default
        (0.02 ms/km) is roughly speed-of-light-in-fibre with routing
        inflation.
    local_latency_ms:
        Latency of a message a site sends to itself (index co-located
        with data); small but not zero.
    """

    def __init__(
        self,
        hop_latency_ms: float = 2.0,
        ms_per_km: float = 0.02,
        local_latency_ms: float = 0.2,
    ) -> None:
        if hop_latency_ms < 0 or ms_per_km < 0 or local_latency_ms < 0:
            raise ConfigurationError("latency parameters must be non-negative")
        self._sites: Dict[str, Site] = {}
        self.hop_latency_ms = hop_latency_ms
        self.ms_per_km = ms_per_km
        self.local_latency_ms = local_latency_ms

    # ------------------------------------------------------------------
    # Site management
    # ------------------------------------------------------------------
    def add_site(self, site: Site) -> None:
        """Register a site; names must be unique."""
        if site.name in self._sites:
            raise ConfigurationError(f"duplicate site name {site.name!r}")
        self._sites[site.name] = site

    def site(self, name: str) -> Site:
        """Fetch a site by name."""
        try:
            return self._sites[name]
        except KeyError:
            raise UnknownEntityError(f"unknown site {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._sites

    def __len__(self) -> int:
        return len(self._sites)

    @property
    def site_names(self) -> List[str]:
        """All site names, sorted."""
        return sorted(self._sites)

    def sites(self, kind: Optional[str] = None) -> List[Site]:
        """All sites, optionally filtered by ``kind``."""
        sites = [self._sites[name] for name in self.site_names]
        if kind is not None:
            sites = [site for site in sites if site.kind == kind]
        return sites

    # ------------------------------------------------------------------
    # Geometry and latency
    # ------------------------------------------------------------------
    def distance_km(self, source: str, destination: str) -> float:
        """Great-circle distance between two sites."""
        return self.site(source).location.distance_km(self.site(destination).location)

    def latency_ms(self, source: str, destination: str) -> float:
        """One-way message latency between two sites."""
        if source == destination:
            return self.local_latency_ms
        return self.hop_latency_ms + self.ms_per_km * self.distance_km(source, destination)

    def nearest_site(self, location: GeoPoint, kind: Optional[str] = None) -> Site:
        """The site geographically closest to ``location``.

        The locale-aware placement policy uses this to decide where a
        sensor network's data "belongs".
        """
        candidates = self.sites(kind)
        if not candidates:
            raise UnknownEntityError("topology has no sites of the requested kind")
        return min(candidates, key=lambda site: site.location.distance_km(location))
