"""The paper's Valencia U-space scenario: 10 urban missions.

Section III-B of the paper: an area of high-density controlled traffic
over the urban centre of Valencia, Spain — 25 km^2, 60 ft ceiling, ten
drones with distinct payloads and velocities (2 at 5 km/h, 1 at 10 km/h,
3 at 12 km/h, 3 at 14 km/h, 1 at 25 km/h), flying North-South,
East-West, and diagonal headings; four missions include turning points.

The exact Valencia coordinates are not published, so the generator lays
out a matching mission mix (same speed distribution, heading diversity,
and turn count) inside a 5 km x 5 km local frame anchored at the
Valencia city centre. Leg lengths are sized so a full-scale
(``scale=1.0``) gold run lasts roughly the paper's 491 s average; the
``scale`` parameter shrinks all horizontal geometry (and therefore the
gold duration) proportionally for CI-sized campaigns.
"""

from __future__ import annotations

import math

from repro.missions.plan import MissionPlan, Waypoint
from repro.missions.spec import DroneSpec, kmh

#: Scenario ceiling: 60 ft in metres; cruises stay below it.
CEILING_M = 18.29

_CRUISE_ALTITUDE_M = 15.0

#: (cruise km/h, payload-laden mass kg, start x, start y, heading deg,
#:  list of (leg-fraction, turn-after deg), description)
#: Leg fractions are multiplied by the mission's speed-dependent length.
_MISSION_LAYOUT = [
    (5.0, 1.4, (1800.0, -300.0), 180.0, [(1.0, 0.0)], "slow courier, North to South"),
    (5.0, 1.6, (-1900.0, 600.0), 0.0, [(1.0, 0.0)], "slow courier, South to North"),
    (10.0, 1.5, (400.0, -2000.0), 90.0, [(0.6, 90.0), (0.4, 0.0)], "inspection, West to East with L turn"),
    (12.0, 1.5, (-600.0, 1900.0), 270.0, [(1.0, 0.0)], "delivery, East to West"),
    (12.0, 1.8, (1500.0, 1200.0), 225.0, [(0.4, -90.0), (0.35, 90.0), (0.25, 0.0)], "heavy delivery, zig-zag SW"),
    (12.0, 1.3, (-1500.0, -1500.0), 45.0, [(1.0, 0.0)], "light delivery, diagonal NE"),
    (14.0, 1.5, (2000.0, 800.0), 200.0, [(0.55, 60.0), (0.45, 0.0)], "survey, SSW with turn"),
    (14.0, 1.7, (-2000.0, -400.0), 20.0, [(1.0, 0.0)], "survey, NNE"),
    (14.0, 1.4, (300.0, 2100.0), 270.0, [(1.0, 0.0)], "survey, East to West"),
    (25.0, 1.5, (-2200.0, -1800.0), 65.0, [(0.65, -50.0), (0.35, 0.0)], "fast blood delivery, NE with turn"),
]

#: Cruise time budget (s) allocated to the horizontal legs at full scale,
#: chosen so the average full-scale gold run lands near the paper's 491 s.
_CRUISE_TIME_S = 455.0

#: Spacing of intermediate waypoints along long legs (m, full scale).
_WAYPOINT_SPACING_M = 400.0


def valencia_missions(scale: float = 1.0) -> list[MissionPlan]:
    """Build the 10-mission scenario.

    Args:
        scale: multiplier on all horizontal geometry. ``1.0`` is the
            paper-scale scenario (~491 s gold runs); smaller values give
            geometrically similar but shorter missions for fast campaigns.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    missions: list[MissionPlan] = []
    for index, (speed_kmh, mass, start, heading_deg, legs, desc) in enumerate(_MISSION_LAYOUT):
        mission_id = index + 1
        cruise = kmh(speed_kmh)
        drone = DroneSpec(
            drone_id=mission_id,
            name=f"UAV-{mission_id:02d}",
            cruise_speed_m_s=cruise,
            top_speed_m_s=cruise * 1.4,
            mass_kg=mass,
        )
        total_length = _CRUISE_TIME_S * cruise * scale
        acceptance = max(1.5, 0.35 * cruise)
        waypoints = _build_waypoints(
            start_xy=(start[0] * scale, start[1] * scale),
            heading_deg=heading_deg,
            legs=legs,
            total_length_m=total_length,
            acceptance_m=acceptance,
            spacing_m=_WAYPOINT_SPACING_M * scale,
        )
        missions.append(
            MissionPlan(
                mission_id=mission_id,
                drone=drone,
                waypoints=waypoints,
                cruise_altitude_m=_CRUISE_ALTITUDE_M,
                has_turns=any(abs(turn) > 1.0 for _, turn in legs),
                description=desc,
            )
        )
    return missions


def _build_waypoints(
    start_xy: tuple[float, float],
    heading_deg: float,
    legs: list[tuple[float, float]],
    total_length_m: float,
    acceptance_m: float,
    spacing_m: float,
) -> list[Waypoint]:
    """Trace the legs, dropping intermediate waypoints every ``spacing_m``."""
    if spacing_m <= 0.0:
        raise ValueError(f"spacing_m must be positive, got {spacing_m}")
    x, y = start_xy
    heading = math.radians(heading_deg)
    points: list[tuple[float, float]] = [(x, y)]
    for fraction, turn_after_deg in legs:
        leg_len = fraction * total_length_m
        # Intermediate waypoints keep "midway between waypoints" and
        # "just before a waypoint" injection timings meaningful.
        steps = max(1, int(leg_len // spacing_m))
        step_len = leg_len / steps
        for _ in range(steps):
            x += step_len * math.cos(heading)
            y += step_len * math.sin(heading)
            points.append((x, y))
        heading += math.radians(turn_after_deg)
    return [
        Waypoint(position_ned=(px, py, -_CRUISE_ALTITUDE_M), acceptance_radius_m=acceptance_m)
        for px, py in points
    ]
