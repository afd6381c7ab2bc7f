"""Fixed-step 6-DOF integration of the quadrotor with ground contact."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mathutils import (
    quat_conjugate_into,
    quat_from_euler,
    quat_integrate_into,
    quat_rotate_into,
    quat_to_euler,
)
from repro.sim.airframe import QuadrotorAirframe
from repro.sim.environment import Environment
from repro.sim.state import RigidBodyState

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
    step (the top-level system uses 100 Hz). Exposes the *true* specific
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
        self.specific_force_body = np.array([0.0, 0.0, -self.environment.gravity_m_s2])
        # Hot-loop work buffers (in-place forms are bit-identical to the
        # allocating originals; see DESIGN.md section 11).
        self._accel = np.zeros(3)
        self._non_grav = np.zeros(3)
        self._q_conj = np.zeros(4)
        self._iw = np.zeros(3)
        self._cross = np.zeros(3)
        self._tau_net = np.zeros(3)
        self._w_dot = np.zeros(3)

    def step(self, motor_commands: np.ndarray, dt: float) -> RigidBodyState:
        """Advance physics by ``dt`` with the given normalised motor commands."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        env = self.environment
        env.wind.step(dt)

        thrusts = self.airframe.motors.step(motor_commands, dt)
        force_world, torque_body = self.airframe.forces_and_torques(
            thrusts,
            self.state.quaternion,
            self.state.velocity_ned,
            self.state.angular_rate_body,
            env,
        )

        mass = self.airframe.params.mass_kg

        # Ground reaction: while resting on the plane, the normal force
        # cancels any net downward force, so the accelerometer correctly
        # reads -g instead of free-fall zero. (`force_world` is the
        # airframe's transient buffer, so it can be edited directly.)
        if self.on_ground and force_world[2] > 0.0:
            force_world[2] = 0.0

        accel_world = self._accel
        np.divide(force_world, mass, out=accel_world)

        # The accelerometer measures specific force: total non-gravitational
        # acceleration, expressed in body axes.
        np.subtract(accel_world, env.gravity_ned, out=self._non_grav)
        quat_conjugate_into(self.state.quaternion, self._q_conj)
        quat_rotate_into(self._q_conj, self._non_grav, self.specific_force_body)

        # Rotational dynamics: I w_dot = tau - w x (I w)
        w = self.state.angular_rate_body
        np.matmul(self.airframe.inertia, w, out=self._iw)
        iw = self._iw
        w0 = w[0]
        w1 = w[1]
        w2 = w[2]
        self._cross[0] = w1 * iw[2] - w2 * iw[1]
        self._cross[1] = w2 * iw[0] - w0 * iw[2]
        self._cross[2] = w0 * iw[1] - w1 * iw[0]
        np.subtract(torque_body, self._cross, out=self._tau_net)
        np.matmul(self.airframe.inertia_inv, self._tau_net, out=self._w_dot)
        w_dot = self._w_dot

        # Semi-implicit Euler: velocities first, then poses. All state
        # arrays are updated in place (bit-identical to the allocating
        # `v + a * dt` form).
        v = self.state.velocity_ned
        v[0] = v[0] + accel_world[0] * dt
        v[1] = v[1] + accel_world[1] * dt
        v[2] = v[2] + accel_world[2] * dt
        _clamp_vec_inplace(v, _MAX_SPEED_M_S)
        w[0] = w[0] + w_dot[0] * dt
        w[1] = w[1] + w_dot[1] * dt
        w[2] = w[2] + w_dot[2] * dt
        _clamp_vec_inplace(w, _MAX_RATE_RAD_S)
        pos = self.state.position_ned
        pos[0] = pos[0] + v[0] * dt
        pos[1] = pos[1] + v[1] * dt
        pos[2] = pos[2] + v[2] * dt
        quat_integrate_into(
            self.state.quaternion, w, dt, out=self.state.quaternion
        )

        self._handle_ground(dt)
        self.time_s += dt
        return self.state

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


def _clamp_vec_inplace(vec: np.ndarray, max_norm: float) -> None:
    """Scale ``vec`` in place down to ``max_norm`` if it is longer."""
    norm_sq = float(vec @ vec)
    if norm_sq > max_norm * max_norm:
        np.multiply(vec, max_norm / np.sqrt(norm_sq), out=vec)
