"""Quadrotor airframe: geometry, mass properties, and force/torque map."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.mathutils import quat_rotate_floats
from repro.sim.environment import AIR_DENSITY_KG_M3, GRAVITY_M_S2
from repro.sim.motors import MAX_THRUST_N, MotorBank


#: Mass properties and aerodynamics of the quad-X airframe: a
#: 0.45 m-class delivery quad, in the weight/speed class of the paper's
#: Valencia scenario drones (its mass comes from the mission's drone).
INERTIA_DIAG = (0.029, 0.029, 0.055)
ARM_LENGTH_M = 0.25
DRAG_AREA_M2 = 0.05
LINEAR_DRAG_COEFF = 0.25
ANGULAR_DAMPING = 0.008
ANGULAR_DAMPING_LINEAR = 0.12
#: Yaw reaction torque per Newton of rotor thrust (metres); the sign
#: comes from the spin layout.
TORQUE_RATIO_M = 0.016


class QuadrotorAirframe:
    """Maps per-motor thrusts to net body force and torque.

    Motor layout (quad-X, FRD body frame, index / position / spin):

    ==  ============  ====
    0   front-right   CCW
    1   back-left     CCW
    2   front-left    CW
    3   back-right    CW
    ==  ============  ====

    CCW rotors (viewed from above) exert a positive-yaw reaction torque
    on the body in the FRD/NED convention used here.
    """

    #: Per-motor (x, y) lever arms as multiples of arm_length, and spin sign.
    _LAYOUT = (
        (+0.7071, +0.7071, +1.0),
        (-0.7071, -0.7071, +1.0),
        (+0.7071, -0.7071, -1.0),
        (-0.7071, +0.7071, -1.0),
    )

    def __init__(self, mass_kg: float = 1.5):
        if mass_kg <= 0.0:
            raise ValueError("mass_kg must be positive")
        self.mass_kg = mass_kg
        self.motors = MotorBank(count=4)
        self.inertia = np.diag(INERTIA_DIAG)
        self.inertia_inv = np.diag(np.reciprocal(INERTIA_DIAG))
        arm = ARM_LENGTH_M
        self._positions = np.array([(x * arm, y * arm) for x, y, _ in self._LAYOUT])
        self._spins = np.array([s for _, _, s in self._LAYOUT])
        # Work buffer for the wind-relative velocity, whose speed is a
        # BLAS dot of it with itself.
        self._v_rel = np.zeros(3)

    @property
    def hover_thrust_fraction(self) -> float:
        """Normalised per-motor command fraction that balances gravity.

        With the quadratic rotor map, hover needs
        ``command = sqrt(m*g / (n * T_max))``.
        """
        weight = self.mass_kg * GRAVITY_M_S2
        return float(np.sqrt(weight / (4.0 * MAX_THRUST_N)))

    def forces_and_torques(
        self,
        thrusts_n: np.ndarray,
        quaternion: Sequence[float],
        velocity_ned: Sequence[float],
        angular_rate_body: Sequence[float],
        wind_ned: Sequence[float],
    ) -> tuple[float, float, float, float, float, float]:
        """Return world-frame force and body-frame torque as one 6-tuple.

        Force includes gravity, rotor thrust, and aerodynamic drag against
        the wind-relative velocity. Torque includes thrust lever arms, yaw
        reaction, and rotational damping. A Python-float kernel:
        ``thrusts_n`` is the motor bank's array (the lever-arm sums are
        BLAS dots over it), the state and wind are float sequences.
        """
        t0, t1, t2, t3 = thrusts_n.tolist()
        # `np.sum` of four values adds them left to right.
        total_thrust = ((t0 + t1) + t2) + t3

        # Thrust acts along -z body (upward for a level vehicle).
        twx, twy, twz = quat_rotate_floats(quaternion, (0.0, 0.0, -total_thrust))

        v0, v1, v2 = velocity_ned
        w0, w1, w2 = wind_ned
        vr0 = v0 - w0
        vr1 = v1 - w1
        vr2 = v2 - w2
        v_rel = self._v_rel
        v_rel[0] = vr0
        v_rel[1] = vr1
        v_rel[2] = vr2
        speed = math.sqrt(float(v_rel.dot(v_rel)))
        # drag = -(0.5 * rho * A * speed + c_lin) * v_rel
        drag = -(0.5 * AIR_DENSITY_KG_M3 * DRAG_AREA_M2 * speed + LINEAR_DRAG_COEFF)
        mass = self.mass_kg
        g0, g1, g2 = 0.0, 0.0, GRAVITY_M_S2
        fx = (twx + vr0 * drag) + g0 * mass
        fy = (twy + vr1 * drag) + g1 * mass
        fz = (twz + vr2 * drag) + g2 * mass

        # Torque from thrust lever arms: r x F with F = (0, 0, -T). The
        # lever columns are sliced here, not stored: a stored view comes
        # back from deepcopy as a contiguous copy, whose BLAS dot product
        # rounds differently.
        positions = self._positions
        tau_x = -float(positions[:, 1].dot(thrusts_n))
        tau_y = float(positions[:, 0].dot(thrusts_n))
        tau_z = float(self._spins.dot(thrusts_n)) * TORQUE_RATIO_M

        r0, r1, r2 = angular_rate_body
        neg_ad = -ANGULAR_DAMPING
        adl = ANGULAR_DAMPING_LINEAR
        return (
            fx,
            fy,
            fz,
            tau_x + ((neg_ad * r0) * abs(r0) - adl * r0),
            tau_y + ((neg_ad * r1) * abs(r1) - adl * r1),
            tau_z + ((neg_ad * r2) * abs(r2) - adl * r2),
        )
