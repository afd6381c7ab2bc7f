"""WGS-84 geodesy and the local NED frame used by missions.

Missions are authored in geodetic coordinates (the paper's Valencia
scenario) but the simulator, EKF, and metrics all work in a local NED
frame anchored at a :class:`GeodeticReference`. The flat-earth
approximation used here is accurate to centimetres over the paper's
25 km^2 operating area, which is far below sensor noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Mean earth radius in metres (IUGG), used by the spherical projection.
EARTH_RADIUS_M = 6_371_008.8


@dataclass(frozen=True)
class GeoPoint:
    """A geodetic coordinate: latitude/longitude in degrees, altitude in
    metres above the reference origin's ground level (positive up)."""

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude_deg}")


class GeodeticReference:
    """Anchors a local NED frame at a geodetic origin.

    ``to_local`` maps a :class:`GeoPoint` to NED metres (down positive,
    so a point 10 m above the origin has ``z = -10``); ``to_geodetic``
    is the inverse.
    """

    def __init__(self, origin: GeoPoint):
        self.origin = origin
        self._lat0_rad = math.radians(origin.latitude_deg)
        self._lon0_rad = math.radians(origin.longitude_deg)
        self._cos_lat0 = math.cos(self._lat0_rad)

    def to_local(self, point: GeoPoint) -> np.ndarray:
        """Project ``point`` into the local NED frame (metres)."""
        d_lat = math.radians(point.latitude_deg) - self._lat0_rad
        d_lon = math.radians(point.longitude_deg) - self._lon0_rad
        north = d_lat * EARTH_RADIUS_M
        east = d_lon * EARTH_RADIUS_M * self._cos_lat0
        down = -(point.altitude_m - self.origin.altitude_m)
        return np.array([north, east, down])

    def to_geodetic(self, ned: np.ndarray) -> GeoPoint:
        """Inverse of :meth:`to_local`."""
        lat = self._lat0_rad + ned[0] / EARTH_RADIUS_M
        lon = self._lon0_rad + ned[1] / (EARTH_RADIUS_M * self._cos_lat0)
        alt = self.origin.altitude_m - ned[2]
        return GeoPoint(math.degrees(lat), math.degrees(lon), alt)

    def distance_m(self, a: GeoPoint, b: GeoPoint) -> float:
        """3-D straight-line distance between two geodetic points."""
        delta = self.to_local(a) - self.to_local(b)
        return math.sqrt(float(delta.dot(delta)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GeodeticReference(origin={self.origin})"
