"""Fixed-step 6-DOF integration of the quadrotor with ground contact."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mathutils import (
    quat_from_euler,
    quat_integrate_into,
    quat_rotate_floats,
    quat_to_euler,
)
from repro.sim.airframe import QuadrotorAirframe
from repro.sim.environment import GRAVITY_M_S2, Environment
from repro.sim.state import RigidBodyState

#: The vehicle's fixed physics/control step: 100 Hz.
PHYSICS_DT_S = 0.01

#: Hard physical limits that keep the integrator sane while a fault is
#: slamming the controls; real vehicles break up long before these.
_MAX_SPEED_M_S = 60.0
_MAX_RATE_RAD_S = 60.0


@dataclass(slots=True)
class GroundContact:
    """Record of the most recent ground-contact event."""

    time_s: float
    impact_speed_m_s: float
    vertical_speed_m_s: float
    tilt_rad: float


class QuadrotorPhysics:
    """Ground-truth propagation of one quadrotor.

    Integrates translational dynamics with semi-implicit Euler and
    attitude with the quaternion exponential map, at the caller's fixed
    step (the top-level system uses :data:`PHYSICS_DT_S`). Exposes the *true* specific
    force and angular rate that the IMU model samples.
    """

    def __init__(
        self,
        airframe: QuadrotorAirframe | None = None,
        environment: Environment | None = None,
        initial_state: RigidBodyState | None = None,
    ):
        self.airframe = airframe or QuadrotorAirframe()
        self.environment = environment or Environment()
        self.state = initial_state.copy() if initial_state else RigidBodyState()
        self.time_s = 0.0
        self.on_ground = self.state.altitude_m <= 1e-6
        self.last_contact: GroundContact | None = None
        # True specific force (accelerometer ground truth): what an ideal
        # accelerometer strapped to the body would read, in body axes.
        # Updated in place every step; copy before storing across steps.
        self.specific_force_body = np.array([0.0, 0.0, -GRAVITY_M_S2])
        # Work buffers for the BLAS gemvs of the rotational dynamics.
        self._iw = np.zeros(3)
        self._tau_net = np.zeros(3)
        self._w_dot = np.zeros(3)

    def step(self, motor_commands: np.ndarray, dt: float) -> RigidBodyState:
        """Advance physics by ``dt`` with the given normalised motor commands."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        # Python-float kernel: every elementwise step repeats its numpy
        # original's operation order; the gemvs and the norms of the
        # clamps stay BLAS (DESIGN.md section 11).
        wind = self.environment.wind.step(dt).tolist()
        airframe = self.airframe
        thrusts = airframe.motors.step(motor_commands, dt)
        state = self.state
        q = state.quaternion.tolist()
        v = state.velocity_ned
        w = state.angular_rate_body
        v0, v1, v2 = v.tolist()
        w0, w1, w2 = w.tolist()
        fx, fy, fz, tau0, tau1, tau2 = airframe.forces_and_torques(
            thrusts, q, (v0, v1, v2), (w0, w1, w2), wind
        )

        # Ground reaction: while resting on the plane, the normal force
        # cancels any net downward force, so the accelerometer correctly
        # reads -g instead of free-fall zero.
        if self.on_ground and fz > 0.0:
            fz = 0.0

        mass = airframe.mass_kg
        ax = fx / mass
        ay = fy / mass
        az = fz / mass

        # The accelerometer measures specific force: total non-gravitational
        # acceleration, expressed in body axes.
        g0, g1, g2 = 0.0, 0.0, GRAVITY_M_S2
        qw, qx, qy, qz = q
        sf = self.specific_force_body
        sf[0], sf[1], sf[2] = quat_rotate_floats(
            (qw, -qx, -qy, -qz), (ax - g0, ay - g1, az - g2)
        )

        # Rotational dynamics: I w_dot = tau - w x (I w)
        airframe.inertia.dot(w, out=self._iw)
        iw0, iw1, iw2 = self._iw.tolist()
        tau_net = self._tau_net
        tau_net[0] = tau0 - (w1 * iw2 - w2 * iw1)
        tau_net[1] = tau1 - (w2 * iw0 - w0 * iw2)
        tau_net[2] = tau2 - (w0 * iw1 - w1 * iw0)
        airframe.inertia_inv.dot(tau_net, out=self._w_dot)
        wd0, wd1, wd2 = self._w_dot.tolist()

        # Semi-implicit Euler: velocities first, then poses, with every
        # state array updated in place.
        v[0] = v0 = v0 + ax * dt
        v[1] = v1 = v1 + ay * dt
        v[2] = v2 = v2 + az * dt
        if _clamp_vec_inplace(v, _MAX_SPEED_M_S):
            v0, v1, v2 = v.tolist()
        w[0] = w0 + wd0 * dt
        w[1] = w1 + wd1 * dt
        w[2] = w2 + wd2 * dt
        _clamp_vec_inplace(w, _MAX_RATE_RAD_S)
        pos = state.position_ned
        p0, p1, p2 = pos.tolist()
        pos[0] = p0 + v0 * dt
        pos[1] = p1 + v1 * dt
        pos[2] = p2 + v2 * dt
        quat_integrate_into(state.quaternion, w, dt, out=state.quaternion)

        self._handle_ground(dt)
        self.time_s += dt
        return state

    def _handle_ground(self, dt: float) -> None:
        """Clamp the vehicle at the ground plane and record impacts."""
        below = self.state.position_ned[2] >= 0.0
        if below and not self.on_ground:
            # Touchdown (or impact) event: record the incoming velocity.
            self.last_contact = GroundContact(
                time_s=self.time_s,
                impact_speed_m_s=self.state.speed_m_s,
                vertical_speed_m_s=float(self.state.velocity_ned[2]),
                tilt_rad=self.state.tilt_rad,
            )
        if below:
            self.on_ground = True
            self.state.position_ned[2] = 0.0
            if self.state.velocity_ned[2] > 0.0:
                self.state.velocity_ned[2] = 0.0
            # Ground friction bleeds off horizontal motion and rotation.
            self.state.velocity_ned[:2] *= max(0.0, 1.0 - 8.0 * dt)
            self.state.angular_rate_body *= max(0.0, 1.0 - 12.0 * dt)
            roll, pitch, yaw = quat_to_euler(self.state.quaternion)
            if abs(roll) < 0.35 and abs(pitch) < 0.35:
                # Settle gently onto the gear when nearly level.
                self.state.quaternion = quat_from_euler(
                    roll * max(0.0, 1.0 - 5.0 * dt), pitch * max(0.0, 1.0 - 5.0 * dt), yaw
                )
        elif self.state.altitude_m > 0.02:
            self.on_ground = False


def _clamp_vec_inplace(vec: np.ndarray, max_norm: float) -> bool:
    """Scale ``vec`` in place down to ``max_norm`` if it is longer.

    Returns whether it scaled.
    """
    norm_sq = float(vec.dot(vec))
    if norm_sq > max_norm * max_norm:
        np.multiply(vec, max_norm / math.sqrt(norm_sq), out=vec)
        return True
    return False
