"""Waypoint navigation: carrot-on-a-string guidance along the mission."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.missions.plan import MissionPlan

#: How far ahead of the vehicle's projection the carrot rides, in
#: seconds of cruise.
LOOKAHEAD_S = 1.2


@dataclass(slots=True)
class NavigatorOutput:
    """Guidance produced each cycle for the position controller."""

    position_sp_ned: np.ndarray
    velocity_ff_ned: np.ndarray
    yaw_sp_rad: float
    cruise_speed_m_s: float


class Navigator:
    """Sequences mission waypoints and produces tracking setpoints.

    Guidance is a carrot point: the vehicle's estimated position is
    projected onto the active leg and the setpoint is placed a lookahead
    distance further along it, with a velocity feedforward along the
    track. This keeps cross-track error small enough that gold runs
    never leave the inner bubble, which the paper's baseline requires.
    """

    def __init__(self, plan: MissionPlan):
        self.plan = plan
        self._index = 0  # active target waypoint
        first = plan.waypoints[0].array
        second = plan.waypoints[1].array
        self._yaw_sp = math.atan2(second[1] - first[1], second[0] - first[0])
        self._done = False
        # Remaining route length after each waypoint, precomputed with
        # the same per-index forward summation as `_distance_after` (the
        # sums are independent per index, so values are bit-identical —
        # a shared suffix-sum would reassociate the adds and drift).
        self._dist_after = [self._distance_after(i) for i in range(len(plan.waypoints))]
        # Every leg after the first joins two waypoints, so its vector,
        # length and direction are fixed: cached here by the index of its
        # target waypoint (leg 0 starts at the vehicle and is computed
        # each cycle). Entry ``i`` is (leg, length, direction, direction
        # as floats); the arrays feed the BLAS dots.
        self._legs = [None] + [
            _leg(plan.waypoints[i - 1].array, plan.waypoints[i].array)
            for i in range(1, len(plan.waypoints))
        ]
        # Hot-loop work buffers; `update` returns buffers or cached
        # waypoint arrays without copying — treat outputs as read-only.
        self._zero3 = np.zeros(3)
        self._tt = np.zeros(3)
        self._rel = np.zeros(3)
        self._carrot = np.zeros(3)
        self._ff = np.zeros(3)

    @property
    def active_index(self) -> int:
        """Index of the waypoint currently being flown to."""
        return self._index

    @property
    def mission_done(self) -> bool:
        """True once the final waypoint has been reached."""
        return self._done

    def reset(self) -> None:
        """Restart the mission from the first waypoint."""
        self._index = 0
        self._done = False

    def update(self, position_ned: np.ndarray) -> NavigatorOutput:
        """Advance sequencing and return guidance for this cycle."""
        waypoints = self.plan.waypoints
        speed = self.plan.drone.cruise_speed_m_s

        if self._done:
            target = waypoints[-1].array
            return NavigatorOutput(target, self._zero3, self._yaw_sp, speed)

        index = self._index
        target_wp = waypoints[index]
        target = target_wp.array
        if index > 0:
            prev = waypoints[index - 1].array
            leg, leg_len, direction, unit = self._legs[index]
        else:
            # First leg starts wherever the vehicle is (top of climb).
            prev = position_ned
            leg, leg_len, direction, unit = _leg(prev, target)

        # math.sqrt(float(v.dot(v))) == np.linalg.norm(v) bit-for-bit (same
        # BLAS dot), minus the linalg wrapper cost.
        tt = self._tt
        np.subtract(target, position_ned, out=tt)
        dist_to_target = math.sqrt(float(tt.dot(tt)))

        # Waypoint acceptance: close enough, or overshot the leg end. The
        # overshoot test `(position - target) . leg > 0` is read off
        # `tt . leg < 0`: negating an operand negates every rounding of
        # the dot, so only the sign of a zero can differ.
        overshot = leg_len > 1e-6 and float(tt.dot(leg)) < 0.0
        if dist_to_target <= target_wp.acceptance_radius_m or overshot:
            if index + 1 < len(waypoints):
                index = self._index = index + 1
                target_wp = waypoints[index]
                prev = target
                target = target_wp.array
                leg, leg_len, direction, unit = self._legs[index]
                np.subtract(target, position_ned, out=tt)
                dist_to_target = math.sqrt(float(tt.dot(tt)))
            else:
                self._done = True
                return NavigatorOutput(target, self._zero3, self._yaw_sp, speed)

        # Float kernel from here on: each line repeats its elementwise
        # numpy original; the dots stay on arrays (DESIGN.md §11).
        d0, d1, d2 = unit
        if leg_len < 1e-6:
            carrot = target
        else:
            np.subtract(position_ned, prev, out=self._rel)
            along = float(self._rel.dot(direction))
            lookahead = max(2.0, speed * LOOKAHEAD_S)
            carrot_dist = max(0.0, min(leg_len, along + lookahead))
            p0, p1, p2 = prev.tolist()
            carrot = self._carrot
            carrot[0] = d0 * carrot_dist + p0
            carrot[1] = d1 * carrot_dist + p1
            carrot[2] = d2 * carrot_dist + p2

        # Yaw follows the track only when the leg is meaningfully
        # horizontal; on (near-)vertical legs the horizontal component is
        # sensor noise and would command random yaw slews. (`x ** 2` is
        # C `pow` on a float and on a numpy scalar alike; `x * x` is not
        # always the same bits.)
        if leg_len > 1e-6 and d0**2 + d1**2 > 0.25:
            self._yaw_sp = math.atan2(d1, d0)

        # Decelerate on final approach so the landing transition does not
        # demand a violent braking manoeuvre.
        remaining = dist_to_target + self._dist_after[index]
        speed = min(speed, max(1.0, 0.6 * remaining))
        velocity_ff = self._ff
        velocity_ff[0] = d0 * speed
        velocity_ff[1] = d1 * speed
        velocity_ff[2] = d2 * speed
        return NavigatorOutput(carrot, velocity_ff, self._yaw_sp, speed)

    def _distance_after(self, index: int) -> float:
        """Route length remaining after waypoint ``index``."""
        total = 0.0
        pts = self.plan.waypoints
        for a, b in zip(pts[index:], pts[index + 1 :]):
            delta = b.array - a.array
            total += math.sqrt(float(delta.dot(delta)))
        return total


def _leg(prev: np.ndarray, target: np.ndarray) -> tuple:
    """A leg's vector, length, unit direction (``None`` on a leg shorter
    than 1e-6) and that direction as floats (zeros on a short leg)."""
    leg = target - prev
    leg_len = math.sqrt(float(leg.dot(leg)))
    if leg_len < 1e-6:
        return leg, leg_len, None, (0.0, 0.0, 0.0)
    direction = leg / leg_len
    return leg, leg_len, direction, tuple(direction.tolist())
