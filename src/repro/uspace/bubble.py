"""The two-layer bubble formulas (paper Eqs. 1-3).

Inner bubble (Eq. 1)::

    Bubble_inner = D_o + max(D_s, D_m)

where ``D_o`` is the drone's dimension (wingspan), ``D_s`` the
manufacturer-recommended safety distance, and ``D_m`` the maximum
distance the drone can cover at top speed between two tracking
instances.

Outer bubble (Eqs. 2-3)::

    D(t_n)          = D(t_{n-1}) * S_a(t_n) / S_a(t_{n-1})
    Bubble_outer(t) = R * (Bubble_inner * max(1, D(t_n)))

``D`` is the anticipated distance covered between tracking instances,
extrapolated from the airspeed ratio; ``R >= 1`` is the airspace risk
factor (the paper uses R = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds between two tracking instances: U-space surveillance tracks
#: every drone at 1 Hz.
TRACKING_INTERVAL_S = 1.0


def max_track_distance_m(top_speed_m_s: float) -> float:
    """D_m of Eq. 1: the distance covered at top speed between two
    tracking instances."""
    return top_speed_m_s * TRACKING_INTERVAL_S


def inner_bubble_radius(
    dimension_m: float, safety_distance_m: float, max_track_distance_m: float
) -> float:
    """Eq. 1: the static inner (alert) bubble radius in metres."""
    if dimension_m < 0.0 or safety_distance_m < 0.0 or max_track_distance_m < 0.0:
        raise ValueError("bubble inputs must be non-negative")
    return dimension_m + max(safety_distance_m, max_track_distance_m)


#: Airspeed below which the Eq. 2 ratio is numerically meaningless and
#: the anticipated distance is simply carried over.
_MIN_AIRSPEED_M_S = 0.05


@dataclass
class BubblePair:
    """Inner and outer radii at one tracking instance."""

    inner_m: float
    outer_m: float

    def __post_init__(self) -> None:
        if self.outer_m < self.inner_m:
            raise ValueError("outer bubble cannot be smaller than inner bubble")


class OuterBubble:
    """Stateful evaluation of the dynamic outer bubble.

    Call :meth:`update` once per tracking instance with the current
    airspeed and the distance actually covered since the previous
    instance. The anticipated distance ``D`` follows Eq. 2; the radius
    follows Eq. 3, floored at the inner radius ("the inner bubble radius
    consistently remains the minimum value", Sec. III-D.2).
    """

    def __init__(self, inner_radius_m: float, risk_factor: float = 1.0):
        if risk_factor < 1.0:
            raise ValueError("R must be >= 1 (paper Sec. III-D.2)")
        if inner_radius_m <= 0.0:
            raise ValueError("inner radius must be positive")
        self.inner_radius_m = inner_radius_m
        self.risk_factor = risk_factor
        self._prev_airspeed: float | None = None
        self._anticipated_distance_m: float | None = None

    def update(self, airspeed_m_s: float, distance_covered_m: float) -> float:
        """Advance one tracking instance; return the outer radius (m)."""
        airspeed_m_s = max(0.0, airspeed_m_s)
        if self._anticipated_distance_m is None:
            # First instance: seed the anticipated distance with reality.
            self._anticipated_distance_m = max(0.0, distance_covered_m)
        elif self._prev_airspeed is not None and self._prev_airspeed > _MIN_AIRSPEED_M_S:
            ratio = airspeed_m_s / self._prev_airspeed
            base = max(0.0, distance_covered_m)
            self._anticipated_distance_m = base * ratio
        else:
            self._anticipated_distance_m = max(0.0, distance_covered_m)
        self._prev_airspeed = airspeed_m_s

        radius = self.risk_factor * (
            self.inner_radius_m * max(1.0, self._anticipated_distance_m)
        )
        return max(radius, self.inner_radius_m)

    @property
    def anticipated_distance_m(self) -> float:
        """Eq. 2 output at the latest tracking instance (0 before any)."""
        return self._anticipated_distance_m or 0.0

    def current(self, airspeed_m_s: float, distance_covered_m: float) -> BubblePair:
        """Convenience: update and return both radii as a pair."""
        outer = self.update(airspeed_m_s, distance_covered_m)
        return BubblePair(inner_m=self.inner_radius_m, outer_m=outer)
