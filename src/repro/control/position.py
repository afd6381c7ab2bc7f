"""Position and velocity control: from setpoints to a thrust vector.

Implements PX4's ``mc_pos_control`` structure: a P position loop feeding
a PID velocity loop whose output is an acceleration setpoint, converted
to a desired thrust direction + magnitude and a tilt-limited attitude
setpoint.
"""

from __future__ import annotations

import math

import numpy as np

from repro.control.pid import Pid, PidParams
from repro.mathutils import clamp, quat_from_rotation_matrix_into
from repro.sim.environment import GRAVITY_M_S2


#: Gains and envelope limits of the outer loops; the horizontal speed
#: limit comes from the mission's drone.
POS_P = 0.95
VEL_PID = PidParams(kp=2.8, ki=0.6, kd=0.15, output_limit=8.0, integral_limit=2.0)
MAX_SPEED_UP_M_S = 3.0
MAX_SPEED_DOWN_M_S = 2.0
MAX_TILT_RAD = math.radians(35.0)
MAX_THRUST = 0.95
MIN_THRUST = 0.08


class PositionController:
    """Outer-loop controller producing attitude + thrust setpoints."""

    def __init__(
        self,
        mass_kg: float = 1.5,
        max_total_thrust_n: float = 32.0,
        max_speed_xy_m_s: float = 12.0,
    ):
        if max_total_thrust_n <= 0.0:
            raise ValueError(
                f"max_total_thrust_n must be positive, got {max_total_thrust_n}"
            )
        self.mass_kg = mass_kg
        self.max_total_thrust_n = max_total_thrust_n
        self.max_speed_xy_m_s = max_speed_xy_m_s
        self._vel_pid = Pid(VEL_PID, dim=3)
        # Hot-loop work buffers; the setpoint methods return these
        # without copying, and they stay valid until the next call.
        self._vel_sp = np.zeros(3)
        self._accel_sp = np.zeros(3)
        self._thrust_vec = np.zeros(3)
        self._body_y = np.zeros(3)
        self._rot_sp = np.zeros((3, 3))
        self._q_sp = np.zeros(4)

    def reset(self) -> None:
        """Clear loop memory (call on mode transitions)."""
        self._vel_pid.reset()

    def velocity_setpoint(
        self,
        position_sp_ned: np.ndarray,
        position_ned: np.ndarray,
        feedforward_ned: np.ndarray | None = None,
        cruise_speed_m_s: float | None = None,
    ) -> np.ndarray:
        """P position loop with per-axis envelope limits."""
        # Float kernel up to the horizontal clamp, whose norm stays the
        # array dot (DESIGN.md §11): `(sp - p) * POS_P + ff`.
        s0, s1, s2 = position_sp_ned.tolist()
        p0, p1, p2 = position_ned.tolist()
        v0 = (s0 - p0) * POS_P
        v1 = (s1 - p1) * POS_P
        v2 = (s2 - p2) * POS_P
        if feedforward_ned is not None:
            f0, f1, f2 = feedforward_ned.tolist()
            v0 = v0 + f0
            v1 = v1 + f1
            v2 = v2 + f2
        vel_sp = self._vel_sp
        vel_sp[0] = v0
        vel_sp[1] = v1
        vel_sp[2] = clamp(v2, -MAX_SPEED_UP_M_S, MAX_SPEED_DOWN_M_S)
        max_xy = cruise_speed_m_s if cruise_speed_m_s is not None else self.max_speed_xy_m_s
        _clamp_norm_inplace(vel_sp[:2], max_xy)
        return vel_sp

    def acceleration_setpoint(
        self, velocity_sp_ned: np.ndarray, velocity_ned: np.ndarray, dt: float
    ) -> np.ndarray:
        """PID velocity loop producing an NED acceleration setpoint."""
        sp = velocity_sp_ned.tolist()
        velocity = velocity_ned.tolist()
        errors = [s - v for s, v in zip(sp, velocity)]
        self._accel_sp[:] = self._vel_pid.update(errors, velocity, dt)
        return self._accel_sp

    def thrust_and_attitude(
        self, accel_sp_ned: np.ndarray, yaw_sp_rad: float
    ) -> tuple[float, np.ndarray]:
        """Convert an acceleration setpoint to (collective, q_setpoint).

        The desired specific-thrust vector is ``a_sp - g`` (NED); its
        direction gives the body -z axis, its magnitude the collective.
        Tilt is limited by rotating the thrust direction back toward
        vertical when it exceeds :data:`MAX_TILT_RAD`.
        """
        # Float kernel: each line repeats its elementwise numpy original;
        # every norm stays the array dot (DESIGN.md §11).
        # Desired thrust (sans mass) pointing "up" along -z for hover.
        # (`x - 0.0 == x` bit-for-bit, so only the z component subtracts.)
        tx, ty, tz = accel_sp_ned.tolist()
        tz = tz - GRAVITY_M_S2

        # A multirotor cannot push downward: even a maximal descent
        # demand keeps some upward thrust (PX4's minimum thrust-z), which
        # also guarantees the attitude setpoint is never inverted.
        min_up = 0.2 * GRAVITY_M_S2
        if tz > -min_up:
            tz = -min_up
        thrust_vec = self._thrust_vec
        thrust_vec[:] = (tx, ty, tz)

        # Tilt limiting: angle between thrust_vec and straight up (-z).
        # math.sqrt(float(v.dot(v))) == np.linalg.norm(v) bit-for-bit (same
        # BLAS dot), minus the linalg wrapper cost.
        norm = math.sqrt(float(thrust_vec.dot(thrust_vec)))
        if norm < 1e-6:
            tx, ty, tz = 0.0, 0.0, -GRAVITY_M_S2
            thrust_vec[:] = (tx, ty, tz)
            norm = GRAVITY_M_S2
        cos_tilt = -tz / norm
        tilt = math.acos(clamp(cos_tilt, -1.0, 1.0))
        if tilt > MAX_TILT_RAD:
            # Keep the vertical component, shrink the horizontal one.
            vertical = -tz
            if vertical < 1e-6:
                vertical = GRAVITY_M_S2 * 0.5
            max_horizontal = vertical * math.tan(MAX_TILT_RAD)
            _clamp_norm_inplace(thrust_vec[:2], max_horizontal)
            norm = math.sqrt(float(thrust_vec.dot(thrust_vec)))
            tx, ty, tz = thrust_vec.tolist()

        # Desired body +z (down) in world frame: -thrust_vec / norm.
        zx = -tx / norm
        zy = -ty / norm
        zz = -tz / norm

        # Build the full desired rotation from body_z and the yaw setpoint.
        # body_y = cross(body_z, yaw_vec) with yaw_vec = [cos, sin, 0];
        # the explicit `* 0.0` terms keep signed zeros identical to the
        # allocating np.cross original.
        cy = math.cos(yaw_sp_rad)
        sy = math.sin(yaw_sp_rad)
        yx = zy * 0.0 - zz * sy
        yy = zz * cy - zx * 0.0
        yz = zx * sy - zy * cy
        body_y = self._body_y
        body_y[:] = (yx, yy, yz)
        y_norm = math.sqrt(float(body_y.dot(body_y)))
        if y_norm < 1e-6:
            # Thrust nearly horizontal along yaw direction; pick any leg.
            yx, yy, yz = -sy, cy, 0.0
            y_norm = 1.0
        yx = yx / y_norm
        yy = yy / y_norm
        yz = yz / y_norm
        rot_sp = self._rot_sp
        rot_sp[:] = (
            (yy * zz - yz * zy, yx, zx),
            (yz * zx - yx * zz, yy, zy),
            (yx * zy - yy * zx, yz, zz),
        )
        q_sp = quat_from_rotation_matrix_into(rot_sp, self._q_sp)

        collective = clamp(
            self.mass_kg * norm / self.max_total_thrust_n, MIN_THRUST, MAX_THRUST
        )
        return collective, q_sp


def _clamp_norm_inplace(vec: np.ndarray, max_norm: float) -> None:
    """In-place :func:`repro.mathutils.clamp_norm` (same dot, same scale)."""
    if max_norm < 0.0:
        raise ValueError(f"max_norm must be non-negative, got {max_norm}")
    norm_sq = float(vec.dot(vec))
    if norm_sq > max_norm * max_norm:
        np.multiply(vec, max_norm / math.sqrt(norm_sq), out=vec)
