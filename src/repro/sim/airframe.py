"""Quadrotor airframe: geometry, mass properties, and force/torque map."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.mathutils import quat_rotate_floats
from repro.sim.environment import Environment
from repro.sim.motors import MotorBank, MotorModel


@dataclass
class AirframeParams:
    """Physical parameters of a quad-X multirotor.

    The defaults model a ~1.5 kg, 0.45 m-class delivery quad, which is in
    the weight/speed class of the paper's Valencia scenario drones. The
    ``dimension_m`` and ``safety_distance_m`` fields feed the inner-bubble
    formula (Eq. 1 of the paper): ``dimension_m`` is ``D_o`` (wingspan)
    and ``safety_distance_m`` is the manufacturer-recommended ``D_s``.
    """

    mass_kg: float = 1.5
    inertia_diag: tuple[float, float, float] = (0.029, 0.029, 0.055)
    arm_length_m: float = 0.25
    drag_area_m2: float = 0.05
    linear_drag_coeff: float = 0.25
    angular_damping: float = 0.008
    angular_damping_linear: float = 0.12
    motor: MotorModel = field(default_factory=MotorModel)
    dimension_m: float = 0.6
    safety_distance_m: float = 1.5

    def __post_init__(self) -> None:
        if self.mass_kg <= 0.0:
            raise ValueError("mass_kg must be positive")
        if any(i <= 0.0 for i in self.inertia_diag):
            raise ValueError("inertia must be positive definite")
        if self.arm_length_m <= 0.0:
            raise ValueError("arm_length_m must be positive")

    @property
    def hover_thrust_fraction(self) -> float:
        """Normalised per-motor command fraction that balances gravity.

        With the quadratic rotor map, hover needs
        ``command = sqrt(m*g / (n * T_max))``.
        """
        from repro.sim.environment import GRAVITY_M_S2

        weight = self.mass_kg * GRAVITY_M_S2
        return float(np.sqrt(weight / (4.0 * self.motor.max_thrust_n)))


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

    def __init__(self, params: AirframeParams | None = None):
        self.params = params or AirframeParams()
        self.motors = MotorBank(self.params.motor, count=4)
        self.inertia = np.diag(self.params.inertia_diag)
        self.inertia_inv = np.diag([1.0 / i for i in self.params.inertia_diag])
        arm = self.params.arm_length_m
        self._positions = np.array([(x * arm, y * arm) for x, y, _ in self._LAYOUT])
        self._spins = np.array([s for _, _, s in self._LAYOUT])
        # Work buffer for the wind-relative velocity, whose speed is a
        # BLAS dot of it with itself.
        self._v_rel = np.zeros(3)

    def forces_and_torques(
        self,
        thrusts_n: np.ndarray,
        quaternion: Sequence[float],
        velocity_ned: Sequence[float],
        angular_rate_body: Sequence[float],
        wind_ned: Sequence[float],
        env: Environment,
    ) -> tuple[float, float, float, float, float, float]:
        """Return world-frame force and body-frame torque as one 6-tuple.

        Force includes gravity, rotor thrust, and aerodynamic drag against
        the wind-relative velocity. Torque includes thrust lever arms, yaw
        reaction, and rotational damping. A Python-float kernel:
        ``thrusts_n`` is the motor bank's array (the lever-arm sums are
        BLAS dots over it), the state and wind are float sequences.
        """
        p = self.params
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
        drag = -(0.5 * env.air_density_kg_m3 * p.drag_area_m2 * speed + p.linear_drag_coeff)
        mass = p.mass_kg
        g0, g1, g2 = env.gravity_ned.tolist()
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
        tau_z = float(self._spins.dot(thrusts_n)) * p.motor.torque_ratio_m

        r0, r1, r2 = angular_rate_body
        neg_ad = -p.angular_damping
        adl = p.angular_damping_linear
        return (
            fx,
            fy,
            fz,
            tau_x + ((neg_ad * r0) * abs(r0) - adl * r0),
            tau_y + ((neg_ad * r1) * abs(r1) - adl * r1),
            tau_z + ((neg_ad * r2) * abs(r2) - adl * r2),
        )
