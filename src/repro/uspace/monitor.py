"""Bubble-violation counting against the assigned route.

A drone's bubble travels with it along the flight plan. At each
tracking instance (1 Hz, the U-space surveillance rate) the monitor
measures how far the drone has strayed from its assigned route; straying
beyond the inner radius is an inner-bubble violation (alert), beyond the
outer radius an outer-bubble violation (separation loss). Gold runs
track the route well inside the inner bubble and score 0/0, matching
the paper's baseline rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.missions.plan import MissionPlan, distance_to_polyline, route_polyline
from repro.uspace.bubble import (
    TRACKING_INTERVAL_S,
    OuterBubble,
    inner_bubble_radius,
    max_track_distance_m,
)


@dataclass
class ViolationCounts:
    """Violation tallies for one mission."""

    inner: int = 0
    outer: int = 0
    tracking_instances: int = 0
    max_deviation_m: float = 0.0


@dataclass(slots=True)
class TrackingPoint:
    """One tracking instance, kept for figures and analysis."""

    time_s: float
    position_ned: np.ndarray
    deviation_m: float
    inner_radius_m: float
    outer_radius_m: float


class BubbleMonitor:
    """Counts inner/outer violations for one drone's mission."""

    def __init__(self, plan: MissionPlan, risk_factor: float = 1.0):
        self.plan = plan
        self.route = route_polyline(plan)
        drone = plan.drone
        self.inner_radius_m = inner_bubble_radius(
            drone.dimension_m,
            drone.safety_distance_m,
            max_track_distance_m(drone.top_speed_m_s),
        )
        self.outer_bubble = OuterBubble(self.inner_radius_m, risk_factor)
        self.counts = ViolationCounts()
        self.history: list[TrackingPoint] = []
        self._prev_position: np.ndarray | None = None
        self._next_track_time = 0.0

    def due(self, time_s: float) -> bool:
        """True when :meth:`maybe_track` would track at ``time_s``.

        Lets the caller skip computing the airspeed on the ~99 of 100
        ticks between tracking instances.
        """
        return not (time_s + 1e-9 < self._next_track_time)

    def maybe_track(
        self, time_s: float, position_ned: np.ndarray, airspeed_m_s: float
    ) -> TrackingPoint | None:
        """Process a tracking instance if one is due; return its record."""
        if time_s + 1e-9 < self._next_track_time:
            return None
        self._next_track_time = time_s + TRACKING_INTERVAL_S

        if self._prev_position is None:
            distance_covered = 0.0
        else:
            delta = position_ned - self._prev_position
            distance_covered = math.sqrt(float(delta.dot(delta)))
        self._prev_position = position_ned.copy()

        outer_radius = self.outer_bubble.update(airspeed_m_s, distance_covered)
        deviation = distance_to_polyline(position_ned, self.route)

        self.counts.tracking_instances += 1
        self.counts.max_deviation_m = max(self.counts.max_deviation_m, deviation)
        if deviation > self.inner_radius_m:
            self.counts.inner += 1
        if deviation > outer_radius:
            self.counts.outer += 1

        point = TrackingPoint(
            time_s=time_s,
            position_ned=position_ned.copy(),
            deviation_m=deviation,
            inner_radius_m=self.inner_radius_m,
            outer_radius_m=outer_radius,
        )
        self.history.append(point)
        return point
