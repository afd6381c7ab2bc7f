"""Error-state extended Kalman filter for multirotor navigation.

State layout (nominal):
    quaternion (body->world), velocity NED, position NED,
    gyro bias, accel bias.

Error state (15): ``[d_theta(3), d_vel(3), d_pos(3), d_bias_gyro(3),
d_bias_accel(3)]`` with the attitude error defined in the body frame,
``q_true = q_nominal * exp(d_theta)``.

The filter predicts at the IMU rate and applies GPS position/velocity,
barometric height, and magnetometer yaw updates with chi-square
innovation gating. Gated (rejected) innovations are reported through
:class:`~repro.estimation.health.InnovationMonitor`, which is what the
failsafe engine watches — mirroring PX4's EKF health flags.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mathutils import (
    clip_float,
    quat_from_axis_angle,
    quat_from_axis_angle_into,
    quat_integrate_into,
    quat_multiply_into,
    quat_normalize_into,
    quat_to_euler,
    quat_to_rotation_matrix_into,
    wrap_angle,
)
from repro.sensors.imu import ImuSample
from repro.sensors.gps import GpsSample
from repro.sim.environment import GRAVITY_M_S2
from repro.estimation.health import InnovationMonitor

# Error-state block indices.
_TH = slice(0, 3)
_V = slice(3, 6)
_P = slice(6, 9)
_BG = slice(9, 12)
_BA = slice(12, 15)
#: Flat indices of the covariance diagonal entries that take process
#: noise: attitude, velocity, gyro bias, accel bias (not position).
_Q_FLAT = np.array([0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14]) * 16

# Process noise densities and the bias random walks.
GYRO_NOISE = 0.03
ACCEL_NOISE = 0.2
GYRO_BIAS_WALK = 5e-4
ACCEL_BIAS_WALK = 3e-3
#: Bounds of the bias estimates.
GYRO_BIAS_LIMIT = 0.4
ACCEL_BIAS_LIMIT = 1.0
#: Innovation gates as sigma multiples: an innovation whose normalised
#: squared magnitude exceeds ``gate**2`` is rejected and counted by the
#: health monitor.
GPS_POS_GATE = 5.0
GPS_VEL_GATE = 5.0
BARO_GATE = 5.0
MAG_GATE = 4.0
#: Measurement noise of the baro and mag aiding.
BARO_NOISE_M = 0.3
MAG_NOISE_RAD = 0.05

#: Gravity in NED (down positive).
_GRAVITY_NED = (0.0, 0.0, GRAVITY_M_S2)


class Ekf:
    """The estimator: IMU-driven prediction plus gated aiding updates."""

    #: Consecutive per-axis GPS rejections before the corresponding state
    #: block is hard-reset to the measurement (PX4's fusion-timeout
    #: reset). At the 5 Hz GPS rate this is ~1.6 s of disagreement.
    RESET_REJECTION_COUNT = 8

    def __init__(
        self,
        initial_position_ned: np.ndarray | None = None,
        initial_yaw_rad: float = 0.0,
        fusion_reset: bool = True,
    ):
        #: Whether the PX4-style fusion-timeout hard reset (the mechanism
        #: that lets the filter recover after divergence) is on.
        self.fusion_reset = fusion_reset
        self.quaternion = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), initial_yaw_rad)
        self.velocity_ned = np.zeros(3)
        self.position_ned = (
            np.zeros(3)
            if initial_position_ned is None
            else np.array(initial_position_ned, dtype=float)
        )
        self.gyro_bias = np.zeros(3)
        self.accel_bias = np.zeros(3)

        # Initial uncertainty: well-initialised SITL vehicle on the pad.
        self.covariance = np.diag(
            [0.01] * 3 + [0.1] * 3 + [0.25] * 3 + [1e-4] * 3 + [1e-2] * 3
        )
        self.monitor = InnovationMonitor()
        self.time_s = 0.0
        # Angular rate after bias removal; the rate controller consumes
        # the raw gyro, but logging and failsafe use this too.
        self.rate_body = np.zeros(3)
        # Stuck-sensor (flatline) detection: a real MEMS gyro never emits
        # bit-identical samples (thermal noise), so an exactly-constant
        # triad means the data stream is dead or frozen. The last raw
        # triads are kept as scalars (element-wise `==` has exactly
        # `np.array_equal` semantics for fixed-shape triads, including
        # NaN) so the check allocates nothing.
        self._lg0 = 0.0
        self._lg1 = 0.0
        self._lg2 = 0.0
        self._have_lg = False
        self._gyro_flatline_count = 0
        self._la0 = 0.0
        self._la1 = 0.0
        self._la2 = 0.0
        self._have_la = False
        self._accel_flatline_count = 0
        # Latched filter fault: a full-IMU dropout (both triads
        # flatlined) means the inertial solution integrity is gone; like
        # PX4's EKF failure handling, the fault latches until landing.
        self.imu_stale_latched = False

        # -- Hot-loop work buffers ------------------------------------
        # Every in-place expression below mirrors its allocating
        # original operation-for-operation (same order, same rounding);
        # the golden step traces and kernel properties pin this.
        self._omega = np.zeros(3)
        self._accel = np.zeros(3)
        self._rot = np.zeros((3, 3))
        self._neg_rot = np.zeros((3, 3))
        self._accel_world = np.zeros(3)
        # Phi is rebuilt from its dt-only entries when dt changes
        # (`_phi_dt` is the dt they were written for).
        self._phi = np.eye(15)
        self._phi_dt: float | None = None
        self._eye15 = np.eye(15)
        self._skew = np.zeros((3, 3))
        self._neg_eye3 = -np.eye(3)
        self._I3 = np.eye(3)
        self._t33 = np.zeros((3, 3))
        self._cov_tmp = np.zeros((15, 15))
        self._sym = np.zeros((15, 15))
        self._ph = np.zeros(15)
        self._k = np.zeros(15)
        self._dx = np.zeros(15)
        self._outer = np.zeros((15, 15))
        self._dq4 = np.zeros(4)
        # The process-noise diagonal, written when the gyro noise or dt
        # changes (`_q_key` is the pair it was written for).
        self._q_diag = np.zeros(12)
        self._q_key = (math.nan, math.nan)
        self._innov3 = np.zeros(3)
        self._pos_var = np.zeros(3)
        self._vel_var = np.full(3, 0.15**2)
        self._h_baro = np.zeros(15)
        self._h_baro[8] = -1.0  # d(alt)/d(p_down)
        self._h_mag = np.zeros(15)
        self._unit_h: dict[int, np.ndarray] = {}
        self._axis_names: dict[str, tuple[str, str, str]] = {}
        self._neg_ez = np.array([0.0, 0.0, -1.0])
        self._expected = np.zeros(3)
        self._measured = np.zeros(3)
        self._err = np.zeros(3)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, imu: ImuSample, dt: float) -> None:
        """Propagate nominal state and covariance with one IMU sample."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        # Python-float kernel around four BLAS calls (the accel gemv, the
        # skew gemm, and the two covariance gemms): every elementwise
        # step repeats its numpy original's operation order.
        g0, g1, g2 = imu.gyro.tolist()
        a0, a1, a2 = imu.accel.tolist()
        bg0, bg1, bg2 = self.gyro_bias.tolist()
        ba0, ba1, ba2 = self.accel_bias.tolist()
        o0 = g0 - bg0
        o1 = g1 - bg1
        o2 = g2 - bg2
        c0 = a0 - ba0
        c1 = a1 - ba1
        c2 = a2 - ba2
        omega = self._omega
        omega[0], omega[1], omega[2] = o0, o1, o2
        accel = self._accel
        accel[0], accel[1], accel[2] = c0, c1, c2
        self.rate_body = omega

        # Flatline detection: with the gyro stream dead (zeros or frozen)
        # the attitude is no longer measured, only *dead-reckoned*, so the
        # attitude process noise must grow accordingly. The inflated
        # covariance lets GPS-velocity innovations correct the attitude
        # through the velocity/attitude cross-covariance — without this,
        # the filter keeps trusting a sensor that has stopped reporting.
        if self._have_lg and g0 == self._lg0 and g1 == self._lg1 and g2 == self._lg2:
            self._gyro_flatline_count += 1
        else:
            self._gyro_flatline_count = 0
        self._lg0 = g0
        self._lg1 = g1
        self._lg2 = g2
        self._have_lg = True
        gyro_noise = GYRO_NOISE if self._gyro_flatline_count < 20 else 0.8

        if self._have_la and a0 == self._la0 and a1 == self._la1 and a2 == self._la2:
            self._accel_flatline_count += 1
        else:
            self._accel_flatline_count = 0
        self._la0 = a0
        self._la1 = a1
        self._la2 = a2
        self._have_la = True
        if self._gyro_flatline_count >= 50 and self._accel_flatline_count >= 50:
            self.imu_stale_latched = True

        rot = self._rot
        quat_to_rotation_matrix_into(self.quaternion, rot)
        rot.dot(accel, out=self._accel_world)
        aw0, aw1, aw2 = self._accel_world.tolist()
        gr0, gr1, gr2 = _GRAVITY_NED
        aw0 = aw0 + gr0
        aw1 = aw1 + gr1
        aw2 = aw2 + gr2

        # Nominal propagation: `p + v dt + 0.5 a dt^2` and `v + a dt`,
        # with the exact grouping of the vector originals.
        pos = self.position_ned
        vel = self.velocity_ned
        p0, p1, p2 = pos.tolist()
        v0, v1, v2 = vel.tolist()
        pos[0] = p0 + v0 * dt + 0.5 * aw0 * dt * dt
        pos[1] = p1 + v1 * dt + 0.5 * aw1 * dt * dt
        pos[2] = p2 + v2 * dt + 0.5 * aw2 * dt * dt
        vel[0] = v0 + aw0 * dt
        vel[1] = v1 + aw1 * dt
        vel[2] = v2 + aw2 * dt
        quat_integrate_into(self.quaternion, omega, dt, out=self.quaternion)

        # Covariance propagation: Phi = I + F dt (adequate at IMU rate).
        # The entries that depend on dt alone are written when dt
        # changes; each step writes the gyro-skew entries and the two
        # rotation blocks.
        phi = self._phi
        if dt != self._phi_dt:
            self._write_phi_constants(dt)
        # I - skew(omega) dt, off the diagonal.
        phi[0, 1] = 0.0 - -o2 * dt
        phi[0, 2] = 0.0 - o1 * dt
        phi[1, 0] = 0.0 - o2 * dt
        phi[1, 2] = 0.0 - -o0 * dt
        phi[2, 0] = 0.0 - -o1 * dt
        phi[2, 1] = 0.0 - o0 * dt
        # -R skew(accel) dt: the 3x3 product stays a BLAS gemm.
        s33 = self._skew
        s33[0, 1] = -c2
        s33[0, 2] = c1
        s33[1, 0] = c2
        s33[1, 2] = -c0
        s33[2, 0] = -c1
        s33[2, 1] = c0
        np.negative(rot, out=self._neg_rot)
        self._neg_rot.dot(s33, out=self._t33)
        # Rows 3-5: that product times dt, and -(R dt).
        rows = zip(self._t33.tolist(), rot.tolist())
        for i, ((m0, m1, m2), (r0, r1, r2)) in enumerate(rows, start=3):
            phi[i, 0] = m0 * dt
            phi[i, 1] = m1 * dt
            phi[i, 2] = m2 * dt
            phi[i, 12] = -(r0 * dt)
            phi[i, 13] = -(r1 * dt)
            phi[i, 14] = -(r2 * dt)

        cov = self.covariance
        phi.dot(cov, out=self._cov_tmp)
        self._cov_tmp.dot(phi.T, out=cov)
        # Process noise on the attitude, velocity and bias diagonals: one
        # fancy-index add, element for element the item adds it replaced.
        # The gemm above wrote `cov` through `out=`, which takes only a
        # C-contiguous array, so the flat reshape is a view of it.
        if gyro_noise != self._q_key[0] or dt != self._q_key[1]:
            self._write_process_noise(gyro_noise, dt)
        cov.reshape(-1)[_Q_FLAT] += self._q_diag
        self.time_s = imu.time_s

    def _write_process_noise(self, gyro_noise: float, dt: float) -> None:
        """Write the process-noise diagonal for ``gyro_noise`` and ``dt``."""
        self._q_diag[:] = (
            [(gyro_noise**2) * dt] * 3
            + [(ACCEL_NOISE**2) * dt] * 3
            + [(GYRO_BIAS_WALK**2) * dt] * 3
            + [(ACCEL_BIAS_WALK**2) * dt] * 3
        )
        self._q_key = (gyro_noise, dt)

    def _write_phi_constants(self, dt: float) -> None:
        """Write the entries of Phi that depend on ``dt`` alone."""
        phi = self._phi
        np.copyto(phi, self._eye15)
        # The diagonal of I - skew(omega) dt (the skew's diagonal is 0).
        for i in range(3):
            phi[i, i] = 1.0 - 0.0 * dt
        # -I dt and I dt, whose off-diagonal zeros keep their signs
        # (-0.0 in the first).
        np.multiply(self._neg_eye3, dt, out=phi[0:3, 9:12])
        np.multiply(self._I3, dt, out=phi[6:9, 3:6])
        self._phi_dt = dt

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update_gps(self, fix: GpsSample) -> None:
        """Apply GPS position and velocity aiding.

        If a channel has been in sustained rejection (the filter diverged
        from reality, e.g. because an IMU fault dragged the prediction
        away), the corresponding state block is hard-reset to the fix —
        PX4's fusion-timeout behaviour, and the mechanism that lets
        vehicles recover once a short injection ends.
        """
        if self.fusion_reset:
            if self.monitor.group_max_consecutive("gps_vel") >= self.RESET_REJECTION_COUNT:
                self._reset_block(_V, fix.velocity_ned, 1.0, "gps_vel")
            if self.monitor.group_max_consecutive("gps_pos") >= self.RESET_REJECTION_COUNT:
                self._reset_block(_P, fix.position_ned, 4.0, "gps_pos")

        pos_var = self._pos_var
        pos_var[0] = fix.horizontal_accuracy_m**2
        pos_var[1] = fix.horizontal_accuracy_m**2
        pos_var[2] = fix.vertical_accuracy_m**2
        innov = self._innov3
        np.subtract(fix.position_ned, self.position_ned, out=innov)
        self._vector_update(innov, _P, pos_var, GPS_POS_GATE, "gps_pos")

        np.subtract(fix.velocity_ned, self.velocity_ned, out=innov)
        self._vector_update(innov, _V, self._vel_var, GPS_VEL_GATE, "gps_vel")

    def update_baro(self, altitude_m: float) -> None:
        """Apply barometric height aiding (altitude positive up)."""
        innov = altitude_m - (-self.position_ned[2])
        self._scalar_update(innov, self._h_baro, BARO_NOISE_M**2, BARO_GATE, "baro")

    def update_mag_yaw(self, yaw_meas_rad: float) -> None:
        """Apply magnetometer yaw aiding."""
        yaw_est = quat_to_euler(self.quaternion)[2]
        innov = wrap_angle(yaw_meas_rad - yaw_est)
        rot = quat_to_rotation_matrix_into(self.quaternion, self._rot)
        h = self._h_mag
        # Small body-frame attitude errors map to world-frame errors via R;
        # yaw error is the world-z component. Entries outside [0:3] stay 0.
        h[_TH] = rot[2, :]
        self._scalar_update(innov, h, MAG_NOISE_RAD**2, MAG_GATE, "mag")

    #: Gain (1/s) of the complementary gravity-tilt correction.
    GRAVITY_AIDING_GAIN = 3.0

    def update_gravity_tilt(
        self, accel_body: np.ndarray, gyro_body: np.ndarray, dt: float = 0.05
    ) -> None:
        """Quasi-static tilt aiding from the accelerometer's gravity vector.

        When the specific force is close to 1 g and the measured rates are
        small, the accelerometer direction observes roll/pitch. The
        correction is applied as a Mahony-style complementary blend,
        ``q <- q * exp(k * err * dt)``, rather than a gated Kalman update:
        its authority must scale with the error so the filter can re-level
        after (or during) a gyro fault window, when the gyro-trusting
        covariance would otherwise gate the information out exactly when
        it is needed. During violent motion or accelerometer faults the
        quasi-static check keeps it out of the loop.
        """
        g = GRAVITY_M_S2
        # math.sqrt(float(v.dot(v))) == np.linalg.norm(v) bit-for-bit (same
        # BLAS dot) without the linalg wrapper cost; used on every hot
        # norm in the loop.
        norm = math.sqrt(float(accel_body.dot(accel_body)))
        quasi_static = (
            abs(norm - g) <= 0.12 * g and math.sqrt(float(gyro_body.dot(gyro_body))) <= 0.25
        )
        if not quasi_static:
            return
        rot = quat_to_rotation_matrix_into(self.quaternion, self._rot)
        expected = self._expected
        rot.T.dot(self._neg_ez, out=expected)
        measured = self._measured
        np.divide(accel_body, norm, out=measured)
        # Small-angle attitude error (body frame); z component excluded —
        # gravity says nothing about yaw.
        err = self._err
        err[0] = measured[1] * expected[2] - measured[2] * expected[1]
        err[1] = measured[2] * expected[0] - measured[0] * expected[2]
        err[2] = 0.0
        err_norm = math.sqrt(float(err.dot(err)))
        self.monitor.record("grav", self.time_s, err_norm, True)
        if err_norm < 1e-9:
            return
        angle = self.GRAVITY_AIDING_GAIN * dt * err_norm
        quat_from_axis_angle_into(err, min(angle, 0.3), self._dq4)
        quat_multiply_into(self.quaternion, self._dq4, self.quaternion)
        quat_normalize_into(self.quaternion, self.quaternion)

    # ------------------------------------------------------------------
    # Sensor switchover
    # ------------------------------------------------------------------

    def reseed_after_imu_switch(self) -> None:
        """Re-seed the delta-state after the primary IMU is replaced.

        The bias estimates, flatline trackers, and innovation history
        all describe the *retired* sensor: the new member has its own
        turn-on biases, and the rejection windows accumulated while
        flying corrupted data would keep the failsafe's EKF-health
        trigger latched long after the data went clean. Position is
        kept (GPS-derived, sensor-independent); attitude and velocity
        covariance are inflated so the aiding updates can pull the
        nominal state back from wherever the fault dragged it.
        """
        diag = self.covariance.ravel()[::16]
        for block, variance in ((_BG, 1e-4), (_BA, 1e-2)):
            self.covariance[block, :] = 0.0
            self.covariance[:, block] = 0.0
            diag[block] = variance
        self.gyro_bias[:] = 0.0
        self.accel_bias[:] = 0.0
        diag[_TH] += 0.02
        diag[_V] += 0.25
        self.monitor.reset_all_windows()
        self._have_lg = False
        self._gyro_flatline_count = 0
        self._have_la = False
        self._accel_flatline_count = 0
        self.imu_stale_latched = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reset_block(self, block: slice, value: np.ndarray, variance: float, channel: str) -> None:
        """Hard-reset one state block to a measurement and re-open gates."""
        if block == _V:
            self.velocity_ned = np.asarray(value, float).copy()
        elif block == _P:
            self.position_ned = np.asarray(value, float).copy()
        else:  # pragma: no cover - only vel/pos resets are defined
            raise ValueError("only velocity/position blocks can be reset")
        self.covariance[block, :] = 0.0
        self.covariance[:, block] = 0.0
        diag = self.covariance.ravel()[:: 16]
        diag[block] = variance
        self.monitor.clear_group_streaks(channel)

    def _vector_update(
        self,
        innovation: np.ndarray,
        block: slice,
        meas_var: np.ndarray,
        gate: float,
        name: str,
    ) -> None:
        """Sequential per-axis scalar updates for a direct-observation block."""
        start = block.start
        names = self._axis_names.get(name)
        if names is None:
            names = (f"{name}_0", f"{name}_1", f"{name}_2")
            self._axis_names[name] = names
        for axis in range(3):
            h = self._unit_h.get(start + axis)
            if h is None:
                h = np.zeros(15)
                h[start + axis] = 1.0
                self._unit_h[start + axis] = h
            self._scalar_update(
                float(innovation[axis]), h, float(meas_var[axis]), gate, names[axis]
            )

    def _scalar_update(
        self, innovation: float, h: np.ndarray, meas_var: float, gate: float, name: str
    ) -> None:
        """One gated scalar Kalman update."""
        ph = self._ph
        self.covariance.dot(h, out=ph)
        # Covariance is PSD and meas_var > 0, but a fault window can
        # collapse both toward zero; the floor keeps the gain finite.
        s = max(float(h.dot(ph)) + meas_var, 1e-12)
        test_ratio = (innovation * innovation) / (gate * gate * s)
        accepted = test_ratio <= 1.0
        self.monitor.record(name, self.time_s, test_ratio, accepted)
        if not accepted:
            return
        k = self._k
        np.divide(ph, s, out=k)
        np.multiply(k, innovation, out=self._dx)
        self._inject_error(self._dx)
        # Joseph-lite: symmetric covariance decrement, written in place
        # (`k[:, None] * ph` is bit-identical to `np.outer(k, ph)`).
        np.multiply(k[:, None], ph, out=self._outer)
        np.subtract(self.covariance, self._outer, out=self.covariance)
        np.add(self.covariance, self.covariance.T, out=self._sym)
        np.multiply(self._sym, 0.5, out=self.covariance)

    def _inject_error(self, dx: np.ndarray) -> None:
        """Fold an error-state correction into the nominal state."""
        th = dx[_TH]
        quat_from_axis_angle_into(th, math.sqrt(float(th.dot(th))), self._dq4)
        quat_multiply_into(self.quaternion, self._dq4, self.quaternion)
        quat_normalize_into(self.quaternion, self.quaternion)
        # Float kernel: `v += dx_v`, `p += dx_p` and `clip(b + dx_b, ±limit)`.
        d = dx.tolist()
        for state, i in ((self.velocity_ned, 3), (self.position_ned, 6)):
            s0, s1, s2 = state.tolist()
            state[0] = s0 + d[i]
            state[1] = s1 + d[i + 1]
            state[2] = s2 + d[i + 2]
        for state, i, limit in (
            (self.gyro_bias, 9, GYRO_BIAS_LIMIT),
            (self.accel_bias, 12, ACCEL_BIAS_LIMIT),
        ):
            s0, s1, s2 = state.tolist()
            state[0] = clip_float(s0 + d[i], -limit, limit)
            state[1] = clip_float(s1 + d[i + 1], -limit, limit)
            state[2] = clip_float(s2 + d[i + 2], -limit, limit)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def attitude_std_rad(self) -> float:
        """1-sigma tilt uncertainty (worst roll/pitch axis)."""
        cov = self.covariance
        return float(np.sqrt(max(cov.item(0, 0), cov.item(1, 1))))

    @staticmethod
    def confidence_from_std(sigma: float) -> float:
        """Gain-scheduling confidence in (0, 1] for an attitude sigma.

        1.0 while the attitude is known to better than ~3 degrees
        (``sigma`` is :attr:`attitude_std_rad`), decaying toward a floor
        as the uncertainty grows (gyro flatline, violent fault
        transients).
        """
        reference = 0.06
        if sigma <= reference:
            return 1.0
        return max(0.12, reference / sigma)
