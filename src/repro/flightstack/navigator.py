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
        # Hot-loop work buffers; `update` returns buffers or cached
        # waypoint arrays without copying — treat outputs as read-only.
        self._zero3 = np.zeros(3)
        self._prev0 = np.zeros(3)
        self._leg = np.zeros(3)
        self._tt = np.zeros(3)
        self._rel = np.zeros(3)
        self._dir = np.zeros(3)
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

        target_wp = waypoints[self._index]
        target = target_wp.array
        if self._index > 0:
            prev = waypoints[self._index - 1].array
        else:
            # First leg starts wherever the vehicle is (top of climb).
            np.copyto(self._prev0, position_ned)
            prev = self._prev0

        leg = self._leg
        np.subtract(target, prev, out=leg)
        # math.sqrt(float(v.dot(v))) == np.linalg.norm(v) bit-for-bit (same
        # BLAS dot), minus the linalg wrapper cost.
        leg_len = math.sqrt(float(leg.dot(leg)))
        np.subtract(target, position_ned, out=self._tt)
        dist_to_target = math.sqrt(float(self._tt.dot(self._tt)))

        # Waypoint acceptance: close enough, or overshot the leg end.
        if leg_len > 1e-6:
            np.subtract(position_ned, target, out=self._rel)
            overshot = float(self._rel.dot(leg)) > 0.0
        else:
            overshot = False
        if dist_to_target <= target_wp.acceptance_radius_m or overshot:
            if self._index + 1 < len(waypoints):
                self._index += 1
                target_wp = waypoints[self._index]
                prev = waypoints[self._index - 1].array
                target = target_wp.array
                np.subtract(target, prev, out=leg)
                leg_len = math.sqrt(float(leg.dot(leg)))
            else:
                self._done = True
                return NavigatorOutput(target, self._zero3, self._yaw_sp, speed)

        if leg_len < 1e-6:
            carrot = target
            direction = self._zero3
        else:
            direction = self._dir
            np.divide(leg, leg_len, out=direction)
            np.subtract(position_ned, prev, out=self._rel)
            along = float(self._rel.dot(direction))
            lookahead = max(2.0, speed * LOOKAHEAD_S)
            carrot_dist = min(leg_len, along + lookahead)
            carrot = self._carrot
            np.multiply(direction, max(0.0, carrot_dist), out=carrot)
            carrot += prev

        # Yaw follows the track only when the leg is meaningfully
        # horizontal; on (near-)vertical legs the horizontal component is
        # sensor noise and would command random yaw slews.
        horizontal_sq = direction[0] ** 2 + direction[1] ** 2
        if leg_len > 1e-6 and horizontal_sq > 0.25:
            self._yaw_sp = math.atan2(direction[1], direction[0])

        # Decelerate on final approach so the landing transition does not
        # demand a violent braking manoeuvre.
        np.subtract(target, position_ned, out=self._tt)
        remaining = math.sqrt(float(self._tt.dot(self._tt))) + self._dist_after[self._index]
        speed = min(speed, max(1.0, 0.6 * remaining))
        velocity_ff = self._ff
        np.multiply(direction, speed, out=velocity_ff)
        return NavigatorOutput(carrot, velocity_ff, self._yaw_sp, speed)

    def _distance_after(self, index: int) -> float:
        """Route length remaining after waypoint ``index``."""
        total = 0.0
        pts = self.plan.waypoints
        for a, b in zip(pts[index:], pts[index + 1 :]):
            delta = b.array - a.array
            total += math.sqrt(float(delta.dot(delta)))
        return total
