"""Property tests: in-place hot-loop math equals its allocating original.

The performance pass replaced allocating numpy expressions with
preallocated-buffer variants. These hypothesis properties pin the
*bit-level* contract between each pair — not approximate closeness —
because the golden step traces pin the optimised step loop to the bit:

* every ``quat_*_into`` variant vs its allocating counterpart
  (including the aliasing patterns the EKF and controllers use);
* the float-kernel :class:`repro.control.mixer.Mixer` vs the allocating
  :func:`naive_mix`;
* the in-place EKF scalar Kalman update vs the allocating
  :func:`naive_scalar_update`, and the float-kernel error injection vs
  :func:`naive_inject_error`;
* the float-kernel :meth:`repro.control.pid.Pid.update` vs the numpy
  :func:`naive_pid_update`;
* the float-kernel position loop vs :func:`naive_velocity_setpoint`,
  and :meth:`repro.flightstack.navigator.Navigator.update` with its leg
  cache vs :func:`naive_navigator_update`;
* the stacked :meth:`repro.redundancy.voter.Voter.update` vs the numpy
  :func:`naive_vote`, and the IMU stack's per-member float kernel vs
  each member through the numpy :func:`naive_imu_sample`;
* the float-kernel physics step (wind, motors, airframe, rigid body and
  ground contact) vs :func:`naive_physics_step`, and the float-kernel
  :meth:`repro.estimation.ekf.Ekf.predict`, whose Phi keeps its
  dt-only entries between calls, vs :func:`naive_predict`.

The ``naive_*`` oracles are earlier method bodies, kept verbatim
(``self`` renamed) as plain functions. The float kernels see NaN,
signed zeros and infinite limits here, because that is where Python
floats and numpy part ways (DESIGN.md §11). One thing is left open on
purpose: where two NaNs meet in one arithmetic operation, IEEE 754 does
not say which payload survives, and numpy's SIMD loops may return
either operand's. Results that can come from such an operation are
compared with :func:`_bits_or_both_nan`; everything else, medians
included, is compared byte for byte.
"""

from __future__ import annotations

import copy
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.control.attitude as attitude_module
import repro.control.mixer as mixer_module
import repro.control.position as position_module
import repro.estimation.ekf as ekf_module
import repro.flightstack.navigator as navigator_module
import repro.redundancy.voter as voter_module
import repro.sensors.imu as imu_module
import repro.sim.airframe as airframe_module
from repro.control import AttitudeController, PositionController
from repro.control.mixer import Mixer
from repro.control.pid import Pid, PidParams
from repro.control.position import _clamp_norm_inplace
from repro.estimation.ekf import _BA, _BG, _P, _TH, _V, Ekf
from repro.flightstack.navigator import Navigator, NavigatorOutput
from repro.mathutils import (
    quat_conjugate,
    quat_conjugate_into,
    quat_from_axis_angle,
    quat_from_axis_angle_into,
    quat_from_euler,
    quat_from_rotation_matrix,
    quat_from_rotation_matrix_into,
    quat_integrate,
    quat_integrate_into,
    quat_multiply,
    quat_multiply_into,
    quat_normalize,
    quat_normalize_into,
    quat_rotate,
    quat_rotate_into,
    quat_to_euler,
    quat_to_rotation_matrix,
    quat_to_rotation_matrix_into,
)
from repro.mathutils import clamp as builtin_clamp
from repro.missions import MissionPlan, Waypoint
from repro.missions.spec import DroneSpec
from repro.redundancy import MEMBER_SEED_STRIDE, RedundancyManager, Voter
from repro.sensors.imu import ImuSample, ImuStack
from repro.sim import (
    GRAVITY_M_S2,
    Environment,
    QuadrotorAirframe,
    QuadrotorPhysics,
    RigidBodyState,
    WindModel,
)
from repro.sim.dynamics import _MAX_RATE_RAD_S, _MAX_SPEED_M_S, GroundContact
from repro.sim.environment import AIR_DENSITY_KG_M3
from repro.sim.motors import MAX_THRUST_N, TIME_CONSTANT_S
from repro.telemetry import COLUMNS, FlightRecorder
from tests.test_telemetry import fake_system

GRAVITY_NED = np.array([0.0, 0.0, GRAVITY_M_S2])

angles = st.floats(-math.pi, math.pi, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)
rates = st.floats(-30.0, 30.0, allow_nan=False)


def unit_quats():
    return st.builds(quat_from_euler, angles, angles, angles)


def raw_quats():
    """Arbitrary 4-vectors, including the near-zero degenerate branch."""
    return st.builds(lambda w, x, y, z: np.array([w, x, y, z]), coords, coords, coords, coords)


def vectors(elements=coords):
    return st.builds(lambda x, y, z: np.array([x, y, z]), elements, elements, elements)


def _bits(a: np.ndarray) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Quaternion _into variants
# ---------------------------------------------------------------------------


@given(raw_quats())
def test_normalize_into_matches(q):
    out = np.empty(4)
    assert _bits(quat_normalize_into(q.copy(), out)) == _bits(quat_normalize(q))


@given(raw_quats())
def test_normalize_into_aliasing(q):
    """``quat_normalize_into(q, q)`` — the EKF's self-normalise pattern."""
    aliased = q.copy()
    quat_normalize_into(aliased, aliased)
    assert _bits(aliased) == _bits(quat_normalize(q))


@given(unit_quats(), unit_quats())
def test_multiply_into_matches(q1, q2):
    out = np.empty(4)
    assert _bits(quat_multiply_into(q1, q2, out)) == _bits(quat_multiply(q1, q2))


@given(unit_quats(), unit_quats())
def test_multiply_into_aliases_first_operand(q1, q2):
    """``quat_multiply_into(q, dq, q)`` — the error-injection pattern."""
    aliased = q1.copy()
    quat_multiply_into(aliased, q2, aliased)
    assert _bits(aliased) == _bits(quat_multiply(q1, q2))


@given(unit_quats())
def test_conjugate_into_matches(q):
    out = np.empty(4)
    assert _bits(quat_conjugate_into(q, out)) == _bits(quat_conjugate(q))


@given(unit_quats(), vectors())
def test_rotate_into_matches(q, v):
    out = np.empty(3)
    assert _bits(quat_rotate_into(q, v, out)) == _bits(quat_rotate(q, v))
    aliased = v.copy()
    quat_rotate_into(q, aliased, aliased)
    assert _bits(aliased) == _bits(quat_rotate(q, v))


@given(vectors(), st.floats(-10.0, 10.0, allow_nan=False))
def test_from_axis_angle_into_matches(axis, angle):
    out = np.empty(4)
    assert _bits(quat_from_axis_angle_into(axis, angle, out)) == _bits(
        quat_from_axis_angle(axis, angle)
    )


@given(raw_quats())
def test_to_rotation_matrix_into_matches(q):
    out = np.empty((3, 3))
    assert _bits(quat_to_rotation_matrix_into(q, out)) == _bits(quat_to_rotation_matrix(q))


@given(unit_quats())
def test_from_rotation_matrix_into_matches(q):
    rot = quat_to_rotation_matrix(q)
    out = np.empty(4)
    assert _bits(quat_from_rotation_matrix_into(rot, out)) == _bits(
        quat_from_rotation_matrix(rot)
    )


@given(unit_quats(), vectors(rates), st.floats(1e-4, 0.1, allow_nan=False))
def test_integrate_into_matches(q, omega, dt):
    out = np.empty(4)
    assert _bits(quat_integrate_into(q, omega, dt, out)) == _bits(
        quat_integrate(q, omega, dt)
    )
    aliased = q.copy()
    quat_integrate_into(aliased, omega, dt, aliased)
    assert _bits(aliased) == _bits(quat_integrate(q, omega, dt))


@pytest.mark.parametrize("omega", [[0.0, 0.0, math.inf], [-math.inf, 1.0, 0.0]])
def test_integrate_infinite_rate_is_nan(omega):
    """An infinite rate gives a NaN quaternion on both paths."""
    q = quat_from_euler(0.1, 0.2, 0.3)
    omega = np.array(omega)
    assert np.all(np.isnan(quat_integrate(q, omega, 0.01)))
    assert np.all(np.isnan(quat_integrate_into(q, omega, 0.01, np.empty(4))))


# ---------------------------------------------------------------------------
# Mixer desaturation
# ---------------------------------------------------------------------------


def naive_mix(mixer: Mixer, collective: float, torque_cmd: np.ndarray) -> np.ndarray:
    """Allocating mixer (pre-optimisation body of ``Mixer.mix``)."""
    weights = np.array(
        [mixer_module.ROLL_PITCH_AUTHORITY, mixer_module.ROLL_PITCH_AUTHORITY, mixer_module.YAW_AUTHORITY]
    )
    torque_part = mixer._SIGNS @ (np.clip(torque_cmd, -1.0, 1.0) * weights)

    span = float(torque_part.max() - torque_part.min())
    if span > 1.0:
        torque_part = torque_part / span
    fractions = collective + torque_part

    overflow = fractions.max() - 1.0
    if overflow > 0.0:
        fractions -= overflow
    underflow = -fractions.min()
    if underflow > 0.0:
        fractions += min(underflow, max(0.0, 1.0 - fractions.max()))
    return np.sqrt(np.clip(fractions, 0.0, 1.0))


#: Values where Python floats and numpy part ways: NaN (two payloads),
#: signed zeros, infinities, and overflow-sized magnitudes.
_QUIET_NAN = struct.unpack("<d", bytes.fromhex("000000000000f87f"))[0]
_PAYLOAD_NAN = struct.unpack("<d", bytes.fromhex("010000000000f8ff"))[0]
edge_values = st.sampled_from(
    [_QUIET_NAN, _PAYLOAD_NAN, 0.0, -0.0, math.inf, -math.inf, 1e308, -1e308]
)


@given(
    st.floats(-0.5, 2.0, allow_nan=False),
    vectors(st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([math.nan, 0.0, -0.0])),
)
def test_mixer_matches_reference(collective, torque_cmd):
    """Buffered mix == allocating mix through every desaturation branch."""
    fast = Mixer().mix(collective, torque_cmd)
    slow = naive_mix(Mixer(), collective, torque_cmd)
    assert _bits(fast) == _bits(slow)


# ---------------------------------------------------------------------------
# EKF scalar Kalman update
# ---------------------------------------------------------------------------


def naive_scalar_update(ekf: Ekf, innovation, h, meas_var, gate, name) -> None:
    """Allocating gated update (pre-optimisation ``Ekf._scalar_update``)."""
    ph = ekf.covariance @ h
    s = max(float(h @ ph) + meas_var, 1e-12)
    test_ratio = (innovation * innovation) / (gate * gate * s)
    accepted = test_ratio <= 1.0
    ekf.monitor.record(name, ekf.time_s, test_ratio, accepted)
    if not accepted:
        return
    k = ph / s
    naive_inject_error(ekf, k * innovation)
    ekf.covariance = ekf.covariance - np.outer(k, ph)
    ekf.covariance = 0.5 * (ekf.covariance + ekf.covariance.T)


def naive_inject_error(ekf: Ekf, dx: np.ndarray) -> None:
    """Allocating error injection (pre-optimisation ``Ekf._inject_error``)."""
    p = ekf_module
    dq = quat_from_axis_angle(dx[_TH], float(np.linalg.norm(dx[_TH])))
    ekf.quaternion = quat_normalize(quat_multiply(ekf.quaternion, dq))
    ekf.velocity_ned = ekf.velocity_ned + dx[_V]
    ekf.position_ned = ekf.position_ned + dx[_P]
    ekf.gyro_bias = np.clip(
        ekf.gyro_bias + dx[_BG], -p.GYRO_BIAS_LIMIT, p.GYRO_BIAS_LIMIT
    )
    ekf.accel_bias = np.clip(
        ekf.accel_bias + dx[_BA], -p.ACCEL_BIAS_LIMIT, p.ACCEL_BIAS_LIMIT
    )


def _paired_ekfs(diag, quaternion):
    """Two EKFs in identical state."""
    fast = Ekf()
    slow = Ekf()
    for ekf in (fast, slow):
        ekf.covariance = np.diag(diag).copy()
        ekf.quaternion = quaternion.copy()
    return fast, slow


@given(
    st.lists(st.floats(1e-6, 2.0, allow_nan=False), min_size=15, max_size=15),
    unit_quats(),
    st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=15, max_size=15),
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(1e-6, 10.0, allow_nan=False),
    st.floats(0.1, 20.0, allow_nan=False),
)
@settings(max_examples=50)
def test_scalar_update_matches_reference(diag, quaternion, h, innovation, meas_var, gate):
    """In-place gated update == allocating update, accepted or rejected."""
    fast, slow = _paired_ekfs(np.array(diag), quaternion)
    h = np.array(h)
    fast._scalar_update(innovation, h, meas_var, gate, "prop")
    naive_scalar_update(slow, innovation, h, meas_var, gate, "prop")
    assert _bits(fast.quaternion) == _bits(slow.quaternion)
    assert _bits(fast.velocity_ned) == _bits(slow.velocity_ned)
    assert _bits(fast.position_ned) == _bits(slow.position_ned)
    assert _bits(fast.gyro_bias) == _bits(slow.gyro_bias)
    assert _bits(fast.accel_bias) == _bits(slow.accel_bias)
    assert _bits(fast.covariance) == _bits(slow.covariance)
    fast_ratio = fast.monitor.test_ratio("prop")
    slow_ratio = slow.monitor.test_ratio("prop")
    assert fast_ratio == slow_ratio


ekf_values = st.floats(-2.0, 2.0) | edge_values


@given(
    unit_quats() | raw_quats(),
    st.lists(ekf_values, min_size=12, max_size=12),
    st.lists(ekf_values, min_size=15, max_size=15),
)
@settings(max_examples=300, deadline=None)
def test_inject_error_matches_numpy_oracle(quaternion, state, dx):
    """Float-kernel error injection == numpy body: NaN, +-inf and +-0 in
    the state and the correction, both bias clamps engaged."""
    fast = Ekf()
    fast.quaternion = quaternion.copy()
    for array, start in (
        (fast.velocity_ned, 0),
        (fast.position_ned, 3),
        (fast.gyro_bias, 6),
        (fast.accel_bias, 9),
    ):
        array[:] = state[start : start + 3]
    slow = copy.deepcopy(fast)
    dx = np.array(dx)
    with np.errstate(all="ignore"):
        try:
            naive_inject_error(slow, dx)
        except ValueError:  # math.sin of an infinite rotation angle
            with pytest.raises(ValueError):
                fast._inject_error(dx)
            return
        fast._inject_error(dx)
    for name in ("quaternion", "velocity_ned", "position_ned", "gyro_bias", "accel_bias"):
        assert _bits_or_both_nan(getattr(fast, name), getattr(slow, name)), name


# ---------------------------------------------------------------------------
# PID update
# ---------------------------------------------------------------------------


def naive_pid(params: PidParams, dim: int) -> SimpleNamespace:
    """Array state of the pre-change :class:`Pid`."""
    return SimpleNamespace(
        params=params,
        _integral=np.zeros(dim),
        _prev_measurement=None,
        _deriv_filtered=np.zeros(dim),
        _out=np.zeros(dim),
        _tmp=np.zeros(dim),
        _zero_deriv=np.zeros(dim),
    )


def naive_pid_update(pid, error, measurement, dt):
    """Numpy PID (pre-change body of ``Pid.update``)."""
    p = pid.params
    error = np.asarray(error, dtype=float)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")

    tmp = pid._tmp
    if p.ki > 0.0:
        np.multiply(error, dt, out=tmp)
        np.add(pid._integral, tmp, out=tmp)
        np.maximum(tmp, -p.integral_limit, out=pid._integral)
        np.minimum(pid._integral, p.integral_limit, out=pid._integral)

    deriv = pid._zero_deriv
    if p.kd > 0.0 and pid._prev_measurement is not None:
        np.subtract(measurement, pid._prev_measurement, out=tmp)
        np.negative(tmp, out=tmp)
        np.divide(tmp, dt, out=tmp)
        alpha = min(1.0, 2.0 * np.pi * p.derivative_filter_hz * dt)
        np.subtract(tmp, pid._deriv_filtered, out=tmp)
        tmp *= alpha
        pid._deriv_filtered += tmp
        deriv = pid._deriv_filtered
    if pid._prev_measurement is None:
        pid._prev_measurement = np.array(measurement, dtype=float, copy=True)
    else:
        np.copyto(pid._prev_measurement, measurement)

    out = pid._out
    np.multiply(error, p.kp, out=out)
    np.multiply(pid._integral, p.ki, out=tmp)
    out += tmp
    np.multiply(deriv, p.kd, out=tmp)
    out += tmp
    np.maximum(out, -p.output_limit, out=out)
    np.minimum(out, p.output_limit, out=out)
    return out


signals = st.floats(-50.0, 50.0) | edge_values
limits = st.floats(0.0, 5.0) | st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 1e-300])
gains = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from([0.0, -0.0])


@st.composite
def pid_runs(draw):
    dim = draw(st.integers(1, 3))
    params = PidParams(
        kp=draw(gains),
        ki=draw(gains),
        kd=draw(gains),
        output_limit=draw(limits),
        integral_limit=draw(limits),
        derivative_filter_hz=draw(st.floats(0.0, 200.0)),
    )
    ticks = draw(
        st.lists(
            st.tuples(
                st.lists(signals, min_size=dim, max_size=dim),
                st.lists(signals, min_size=dim, max_size=dim),
                st.floats(1e-4, 0.1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return dim, params, ticks


@given(pid_runs())
@settings(max_examples=300, deadline=None)
def test_pid_update_matches_numpy_oracle(run):
    """Float-kernel PID == numpy PID, tick after tick, to the bit."""
    dim, params, ticks = run
    pid = Pid(params, dim=dim)
    oracle = naive_pid(params, dim)
    for error, measurement, dt in ticks:
        with np.errstate(all="ignore"):
            want = naive_pid_update(oracle, np.array(error), np.array(measurement), dt).copy()
        got = pid.update(error, measurement, dt)
        assert _bits_or_both_nan(got, want)
        assert _bits_or_both_nan(pid.integral, oracle._integral)


# ---------------------------------------------------------------------------
# Position and attitude controllers
# ---------------------------------------------------------------------------


def naive_thrust_and_attitude(ctrl: PositionController, accel_sp_ned, yaw_sp_rad):
    """Numpy thrust/attitude (pre-change ``thrust_and_attitude`` body)."""
    p = position_module
    thrust_vec = np.zeros(3)
    thrust_vec[0] = accel_sp_ned[0]
    thrust_vec[1] = accel_sp_ned[1]
    thrust_vec[2] = accel_sp_ned[2] - GRAVITY_M_S2
    min_up = 0.2 * GRAVITY_M_S2
    if thrust_vec[2] > -min_up:
        thrust_vec[2] = -min_up
    norm = math.sqrt(float(thrust_vec @ thrust_vec))
    if norm < 1e-6:
        thrust_vec[0] = 0.0
        thrust_vec[1] = 0.0
        thrust_vec[2] = -GRAVITY_M_S2
        norm = GRAVITY_M_S2
    cos_tilt = -thrust_vec[2] / norm
    tilt = math.acos(builtin_clamp(cos_tilt, -1.0, 1.0))
    if tilt > p.MAX_TILT_RAD:
        vertical = -thrust_vec[2]
        if vertical < 1e-6:
            vertical = GRAVITY_M_S2 * 0.5
        max_horizontal = vertical * math.tan(p.MAX_TILT_RAD)
        _clamp_norm_inplace(thrust_vec[:2], max_horizontal)
        norm = math.sqrt(float(thrust_vec @ thrust_vec))
    body_z = np.zeros(3)
    np.negative(thrust_vec, out=body_z)
    np.divide(body_z, norm, out=body_z)
    cy = math.cos(yaw_sp_rad)
    sy = math.sin(yaw_sp_rad)
    body_y = np.zeros(3)
    body_y[0] = body_z[1] * 0.0 - body_z[2] * sy
    body_y[1] = body_z[2] * cy - body_z[0] * 0.0
    body_y[2] = body_z[0] * sy - body_z[1] * cy
    y_norm = math.sqrt(float(body_y @ body_y))
    if y_norm < 1e-6:
        body_y[0] = -sy
        body_y[1] = cy
        body_y[2] = 0.0
        y_norm = 1.0
    np.divide(body_y, y_norm, out=body_y)
    body_x = np.zeros(3)
    body_x[0] = body_y[1] * body_z[2] - body_y[2] * body_z[1]
    body_x[1] = body_y[2] * body_z[0] - body_y[0] * body_z[2]
    body_x[2] = body_y[0] * body_z[1] - body_y[1] * body_z[0]
    rot_sp = np.zeros((3, 3))
    rot_sp[:, 0] = body_x
    rot_sp[:, 1] = body_y
    rot_sp[:, 2] = body_z
    q_sp = quat_from_rotation_matrix_into(rot_sp, np.zeros(4))
    collective = builtin_clamp(
        ctrl.mass_kg * norm / ctrl.max_total_thrust_n, p.MIN_THRUST, p.MAX_THRUST
    )
    return collective, q_sp


def naive_rate_setpoint(ctrl: AttitudeController, q_estimate, q_setpoint, confidence):
    """Numpy attitude law (pre-change ``rate_setpoint`` body)."""
    p = attitude_module
    q_err = np.zeros(4)
    quat_multiply_into(quat_conjugate_into(q_estimate, np.zeros(4)), q_setpoint, q_err)
    quat_normalize_into(q_err, q_err)
    if q_err[0] < 0.0:
        np.negative(q_err, out=q_err)
    rate_sp = np.zeros(3)
    np.multiply(q_err[1:4], 2.0 * p.ATTITUDE_P * confidence, out=rate_sp)
    rate_sp[2] *= p.YAW_WEIGHT
    max_rate = p.MAX_RATE_RAD_S * confidence
    max_yaw = p.MAX_YAW_RATE_RAD_S * confidence
    rate_sp[0] = min(max(rate_sp[0], -max_rate), max_rate)
    rate_sp[1] = min(max(rate_sp[1], -max_rate), max_rate)
    rate_sp[2] = min(max(rate_sp[2], -max_yaw), max_yaw)
    return rate_sp


accel_setpoints = st.floats(-60.0, 60.0) | edge_values


@given(
    st.lists(accel_setpoints, min_size=3, max_size=3),
    st.floats(-math.pi, math.pi) | st.sampled_from([0.0, -0.0]),
)
@settings(max_examples=300, deadline=None)
def test_thrust_and_attitude_matches_numpy_oracle(accel_sp, yaw):
    """Float-kernel thrust/attitude == numpy body, tilt limit included."""
    accel_sp = np.array(accel_sp)
    with np.errstate(all="ignore"):
        want_collective, want_q = naive_thrust_and_attitude(PositionController(), accel_sp, yaw)
        got_collective, got_q = PositionController().thrust_and_attitude(accel_sp, yaw)
    assert _bits_or_both_nan([got_collective], [want_collective])
    assert _bits_or_both_nan(got_q, want_q)


quat_parts = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, math.nan])


@given(
    st.lists(quat_parts, min_size=4, max_size=4),
    unit_quats(),
    st.floats(0.01, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_rate_setpoint_matches_numpy_oracle(q_estimate, q_setpoint, confidence):
    """Float-kernel attitude law == numpy body, short-way flip included."""
    q_estimate = np.array(q_estimate)
    with np.errstate(all="ignore"):
        want = naive_rate_setpoint(AttitudeController(), q_estimate, q_setpoint, confidence)
        got = AttitudeController().rate_setpoint(q_estimate, q_setpoint, confidence)
    assert _bits_or_both_nan(got, want)


def naive_velocity_setpoint(
    ctrl: PositionController,
    position_sp_ned,
    position_ned,
    feedforward_ned=None,
    cruise_speed_m_s=None,
):
    """Numpy P position loop (pre-change ``velocity_setpoint`` body)."""
    p = position_module
    vel_sp = ctrl._vel_sp
    np.subtract(position_sp_ned, position_ned, out=vel_sp)
    np.multiply(vel_sp, p.POS_P, out=vel_sp)
    if feedforward_ned is not None:
        vel_sp += feedforward_ned
    max_xy = cruise_speed_m_s if cruise_speed_m_s is not None else ctrl.max_speed_xy_m_s
    _clamp_norm_inplace(vel_sp[:2], max_xy)
    vel_sp[2] = builtin_clamp(float(vel_sp[2]), -p.MAX_SPEED_UP_M_S, p.MAX_SPEED_DOWN_M_S)
    return vel_sp


positions = st.floats(-200.0, 200.0) | edge_values


@given(
    st.lists(positions, min_size=3, max_size=3),
    st.lists(positions, min_size=3, max_size=3),
    st.none() | st.lists(st.floats(-20.0, 20.0) | edge_values, min_size=3, max_size=3),
    st.none() | st.floats(0.0, 15.0) | st.sampled_from([0.0, math.inf]),
)
@settings(max_examples=300, deadline=None)
def test_velocity_setpoint_matches_numpy_oracle(setpoint, position, feedforward, cruise):
    """Float-kernel P loop == numpy body: both clamps, no feedforward,
    the default speed limit, and NaN/inf/signed-zero inputs."""
    setpoint, position = np.array(setpoint), np.array(position)
    ff = None if feedforward is None else np.array(feedforward)
    with np.errstate(all="ignore"):
        want = naive_velocity_setpoint(PositionController(), setpoint, position, ff, cruise)
        got = PositionController().velocity_setpoint(setpoint, position, ff, cruise)
    assert _bits_or_both_nan(got, want)


# ---------------------------------------------------------------------------
# Navigator
# ---------------------------------------------------------------------------


def naive_navigator(nav: Navigator) -> Navigator:
    """A copy of ``nav`` with the pre-change work buffers attached."""
    oracle = copy.deepcopy(nav)
    oracle._prev0 = np.zeros(3)
    oracle._leg = np.zeros(3)
    oracle._dir = np.zeros(3)
    return oracle


def naive_navigator_update(nav, position_ned):
    """Pre-change body of ``Navigator.update``."""
    waypoints = nav.plan.waypoints
    speed = nav.plan.drone.cruise_speed_m_s

    if nav._done:
        target = waypoints[-1].array
        return NavigatorOutput(target, nav._zero3, nav._yaw_sp, speed)

    target_wp = waypoints[nav._index]
    target = target_wp.array
    if nav._index > 0:
        prev = waypoints[nav._index - 1].array
    else:
        np.copyto(nav._prev0, position_ned)
        prev = nav._prev0

    leg = nav._leg
    np.subtract(target, prev, out=leg)
    leg_len = math.sqrt(float(leg.dot(leg)))
    np.subtract(target, position_ned, out=nav._tt)
    dist_to_target = math.sqrt(float(nav._tt.dot(nav._tt)))

    if leg_len > 1e-6:
        np.subtract(position_ned, target, out=nav._rel)
        overshot = float(nav._rel.dot(leg)) > 0.0
    else:
        overshot = False
    if dist_to_target <= target_wp.acceptance_radius_m or overshot:
        if nav._index + 1 < len(waypoints):
            nav._index += 1
            target_wp = waypoints[nav._index]
            prev = waypoints[nav._index - 1].array
            target = target_wp.array
            np.subtract(target, prev, out=leg)
            leg_len = math.sqrt(float(leg.dot(leg)))
        else:
            nav._done = True
            return NavigatorOutput(target, nav._zero3, nav._yaw_sp, speed)

    if leg_len < 1e-6:
        carrot = target
        direction = nav._zero3
    else:
        direction = nav._dir
        np.divide(leg, leg_len, out=direction)
        np.subtract(position_ned, prev, out=nav._rel)
        along = float(nav._rel.dot(direction))
        lookahead = max(2.0, speed * navigator_module.LOOKAHEAD_S)
        carrot_dist = min(leg_len, along + lookahead)
        carrot = nav._carrot
        np.multiply(direction, max(0.0, carrot_dist), out=carrot)
        carrot += prev

    horizontal_sq = direction[0] ** 2 + direction[1] ** 2
    if leg_len > 1e-6 and horizontal_sq > 0.25:
        nav._yaw_sp = math.atan2(direction[1], direction[0])

    np.subtract(target, position_ned, out=nav._tt)
    remaining = math.sqrt(float(nav._tt.dot(nav._tt))) + nav._dist_after[nav._index]
    speed = min(speed, max(1.0, 0.6 * remaining))
    velocity_ff = nav._ff
    np.multiply(direction, speed, out=velocity_ff)
    return NavigatorOutput(carrot, velocity_ff, nav._yaw_sp, speed)


def _nav_plan(points, radius=2.0, speed=4.0) -> MissionPlan:
    drone = DroneSpec(1, "UAV-01", cruise_speed_m_s=speed, top_speed_m_s=speed * 1.4, mass_kg=1.5)
    return MissionPlan(1, drone, [Waypoint(tuple(point), radius) for point in points])


def _fly_navigators(plan, positions, copy_at=None) -> tuple[Navigator, list[int]]:
    """Fly the float-kernel navigator and the numpy oracle over the same
    positions, comparing every output; return the navigator and its
    active index after each cycle."""
    nav = Navigator(plan)
    oracle = naive_navigator(nav)
    indices = []
    for i, position in enumerate(positions):
        if i == copy_at:
            nav = copy.deepcopy(nav)
        position = np.array(position)
        with np.errstate(all="ignore"):
            want = naive_navigator_update(oracle, position)
            got = nav.update(position)
        assert _bits_or_both_nan(got.position_sp_ned, want.position_sp_ned)
        assert _bits_or_both_nan(got.velocity_ff_ned, want.velocity_ff_ned)
        assert _bits_or_both_nan([got.yaw_sp_rad], [want.yaw_sp_rad])
        assert _bits_or_both_nan([got.cruise_speed_m_s], [want.cruise_speed_m_s])
        assert (nav.active_index, nav.mission_done) == (oracle._index, oracle._done)
        indices.append(nav.active_index)
    return nav, indices


@st.composite
def routes(draw):
    """A plan whose legs may be zero or 1e-6 long, and positions that
    walk it: near the next waypoints (so the index advances and the
    final waypoint is reached), along the route, anywhere, or at edge
    values."""
    coord = st.floats(-60.0, 60.0, allow_nan=False)
    points = [draw(st.tuples(coord, coord, coord))]
    for _ in range(draw(st.integers(1, 5))):
        x, y, z = points[-1]
        leg = draw(st.sampled_from(["free", "zero", "micro"]))
        if leg == "free":
            points.append(draw(st.tuples(coord, coord, coord)))
        elif leg == "zero":
            points.append((x, y, z))
        else:
            points.append((x, y, z + draw(st.sampled_from([1e-6, -1e-6, 5e-7, 2e-6]))))
    plan = _nav_plan(points, draw(st.floats(0.0, 5.0)), draw(st.floats(0.5, 15.0)))
    offset = st.floats(-3.0, 3.0, allow_nan=False)
    positions = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["near", "near", "along", "any", "edge"]))
        if kind == "near":
            x, y, z = points[draw(st.integers(0, len(points) - 1))]
            positions.append((x + draw(offset), y + draw(offset), z + draw(offset)))
        elif kind == "along":
            a, b = points[draw(st.integers(0, len(points) - 2)) :][:2]
            f = draw(st.floats(-0.2, 1.2))
            positions.append(tuple(u + f * (v - u) + draw(offset) for u, v in zip(a, b)))
        elif kind == "any":
            positions.append(draw(st.tuples(coord, coord, coord)))
        else:
            positions.append(tuple(draw(st.lists(coord | edge_values, min_size=3, max_size=3))))
    return plan, positions, draw(st.integers(0, len(positions)))


@given(routes())
@settings(max_examples=300, deadline=None)
def test_navigator_update_matches_numpy_oracle(route):
    """Float-kernel navigator with its leg cache == numpy body, cycle
    after cycle, including a deep copy between cycles."""
    plan, positions, copy_at = route
    _fly_navigators(plan, positions, copy_at)


def test_navigator_oracle_covers_short_legs_advance_and_final_waypoint():
    """A leg exactly 1e-6 long (its carrot is not its target), a
    zero-length leg, a position abeam a waypoint (the overshoot dot is
    exactly zero), advances by distance and by overshoot, the final
    waypoint, and a deep copy mid-leg with the cache filled."""
    points = [
        (30.0, 0.0, -15.0),
        (0.0, 0.0, -15.0),
        (1e-6, 0.0, -15.0),  # leg exactly 1e-6 long
        (1e-6, 0.0, -15.0),  # zero-length leg
        (1e-6, 30.0, -15.0),
    ]
    plan = _nav_plan(points)
    positions = [
        (40.0, 5.0, -12.0),  # leg 0, from the vehicle
        (31.0, 1.0, -15.0),  # reach waypoint 0
        (15.0, 0.5, -15.0),  # mid leg 1: the copy is taken here
        (0.0, 2.5, -15.0),  # abeam waypoint 1, outside its radius
        (-6.0, 0.0, -15.0),  # overshoot leg 1, onto the 1e-6 leg
        (-6.0, 0.0, -15.0),  # stay on it: carrot held at its start
        (0.5, 0.0, -15.0),  # reach waypoint 2, onto the zero-length leg
        (0.5, 0.0, -15.0),  # onto the last leg
        (0.2, 12.0, -15.0),
        (0.0, 29.0, -15.0),  # final waypoint
        (0.0, 29.0, -15.0),  # done
    ]
    nav = Navigator(plan)
    assert [entry and entry[1] for entry in nav._legs] == [None, 30.0, 1e-6, 0.0, 30.0]
    assert nav._legs[2][2] is not None and nav._legs[3][2] is None
    nav, indices = _fly_navigators(plan, positions, copy_at=2)
    assert indices == [0, 1, 1, 1, 2, 2, 3, 4, 4, 4, 4]
    assert nav.mission_done


# ---------------------------------------------------------------------------
# Voter and IMU bank
# ---------------------------------------------------------------------------


def naive_voter(num_members: int) -> SimpleNamespace:
    """Debounce state of the pre-change :class:`Voter`."""
    return SimpleNamespace(
        num_members=num_members,
        _mismatch_time_s=[0.0] * num_members,
        _clean_time_s=[0.0] * num_members,
        _unhealthy=[False] * num_members,
    )


def naive_vote(voter, samples, dt):
    """Numpy vote (pre-change body of ``Voter.update``), as a tuple of
    time, residuals, mismatched, unhealthy, median accel, median gyro."""
    p = voter_module
    accels = np.stack([s.accel for s in samples])
    gyros = np.stack([s.gyro for s in samples])
    median_accel = np.median(accels, axis=0)
    median_gyro = np.median(gyros, axis=0)

    residuals = []
    mismatched = []
    for i in range(voter.num_members):
        accel_res = float(np.linalg.norm(accels[i] - median_accel))
        gyro_res = float(np.linalg.norm(gyros[i] - median_gyro))
        residual = max(
            accel_res / p.ACCEL_THRESHOLD_M_S2,
            gyro_res / p.GYRO_THRESHOLD_RAD_S,
        )
        residuals.append(residual)
        mismatched.append(residual > 1.0)

    for i, bad_now in enumerate(mismatched):
        if bad_now:
            voter._mismatch_time_s[i] += dt
            voter._clean_time_s[i] = 0.0
            if voter._mismatch_time_s[i] >= p.MISMATCH_DEBOUNCE_S:
                voter._unhealthy[i] = True
        else:
            voter._clean_time_s[i] += dt
            voter._mismatch_time_s[i] = 0.0
            if voter._unhealthy[i] and voter._clean_time_s[i] >= p.READMIT_DEBOUNCE_S:
                voter._unhealthy[i] = False

    return (
        samples[0].time_s,
        tuple(residuals),
        tuple(mismatched),
        tuple(voter._unhealthy),
        median_accel,
        median_gyro,
    )


def _bits_or_both_nan(got, want) -> bool:
    """Equal bytes, except that a NaN may match a NaN of another payload."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return bool(
        np.array_equal(np.isnan(got), nan)
        and _bits(got[~nan]) == _bits(want[~nan])
    )


readings = st.floats(-200.0, 200.0) | edge_values


@st.composite
def bank_ticks(draw, members=st.integers(1, 6), max_ticks=12):
    """A member count and up to ``max_ticks`` cycles of bank samples."""
    n = draw(members)
    triad = st.lists(readings, min_size=3, max_size=3)
    cycle = st.lists(st.tuples(triad, triad), min_size=n, max_size=n)
    return n, draw(st.lists(cycle, min_size=1, max_size=max_ticks))


def _samples(cycle, t):
    return [ImuSample(t, np.array(a), np.array(g)) for a, g in cycle]


@given(bank_ticks())
@settings(max_examples=120, deadline=None)
def test_vote_matches_numpy_oracle(run):
    """Stacked vote == numpy vote to the bit: medians (NaN payloads and
    signed zeros included, banks of one to six), residuals, debounce."""
    n, cycles = run
    voter = Voter(num_members=n)
    oracle = naive_voter(n)
    for tick, cycle in enumerate(cycles):
        with np.errstate(all="ignore"):
            want = naive_vote(oracle, _samples(cycle, tick * 0.01), 0.01)
        got = voter.update(_samples(cycle, tick * 0.01), 0.01)
        assert got.time_s == want[0]
        assert _bits_or_both_nan(got.residuals, want[1])
        assert (got.mismatched, got.unhealthy) == (want[2], want[3])
        assert _bits(got.median_accel) == _bits(want[4])
        assert _bits(got.median_gyro) == _bits(want[5])


@given(bank_ticks(members=st.sampled_from([7, 8]), max_ticks=3))
@settings(max_examples=50, deadline=None)
def test_vote_matches_numpy_oracle_on_large_banks(run):
    """From seven values numpy partitions by quickselect, not selection
    sort; the sorted median still gives its bits."""
    n, cycles = run
    voter = Voter(num_members=n)
    oracle = naive_voter(n)
    for tick, cycle in enumerate(cycles):
        with np.errstate(all="ignore"):
            want = naive_vote(oracle, _samples(cycle, tick * 0.01), 0.01)
        got = voter.update(_samples(cycle, tick * 0.01), 0.01)
        assert _bits_or_both_nan(got.residuals, want[1])
        assert _bits(got.median_accel) == _bits(want[4])


@given(
    st.integers(2, 5),
    st.lists(st.floats(-200.0, 200.0), min_size=6, max_size=6),
    st.floats(50.0, 500.0),
)
@settings(max_examples=100, deadline=None)
def test_degraded_fallback_flies_the_numpy_median(n, base, offset):
    """With every member corrupted the manager flies the bank median,
    which must be np.median's bits (the DEGRADED fallback's input)."""
    manager = RedundancyManager(num_members=n, enabled=True)
    # Member k reads base + ((k + axis) % n) * offset, so on every axis
    # a different member holds the median and no member agrees with it.
    spread = np.array([[(k + j) % n for j in range(6)] for k in range(n)]) * offset
    rows = np.array(base) + spread

    def cycle(t):
        return [ImuSample(t, row[:3].copy(), row[3:].copy()) for row in rows]

    selection = None
    for i in range(40):
        selection = manager.select(i * 0.01, cycle(i * 0.01), 0.01, isolating=True)
    assert manager.degraded
    assert _bits(selection.sample.accel) == _bits(np.median(rows[:, :3], axis=0))
    assert _bits(selection.sample.gyro) == _bits(np.median(rows[:, 3:], axis=0))


#: The two triads of the IMU, as the pre-change per-triad parameters.
IMU_TRIADS = SimpleNamespace(
    accel=SimpleNamespace(
        measurement_range=imu_module.ACCEL_RANGE_M_S2,
        noise_density=imu_module.ACCEL_NOISE_DENSITY,
        bias_sigma=imu_module.ACCEL_BIAS_SIGMA,
        bias_instability=imu_module.ACCEL_BIAS_INSTABILITY,
    ),
    gyro=SimpleNamespace(
        measurement_range=imu_module.GYRO_RANGE_RAD_S,
        noise_density=imu_module.GYRO_NOISE_DENSITY,
        bias_sigma=imu_module.GYRO_BIAS_SIGMA,
        bias_instability=imu_module.GYRO_BIAS_INSTABILITY,
    ),
)


def naive_imu(seed: int) -> SimpleNamespace:
    """State of the pre-change single ``Imu`` (per-triad biases)."""
    params = IMU_TRIADS
    rng = np.random.default_rng(seed)
    accel_bias = rng.normal(0.0, params.accel.bias_sigma, size=3)
    gyro_bias = rng.normal(0.0, params.gyro.bias_sigma, size=3)
    accel_walk = params.accel.bias_instability > 0.0
    gyro_walk = params.gyro.bias_instability > 0.0
    return SimpleNamespace(
        params=params,
        _rng=rng,
        accelerometer=SimpleNamespace(bias=accel_bias),
        gyroscope=SimpleNamespace(bias=gyro_bias),
        _accel_walk=accel_walk,
        _gyro_walk=gyro_walk,
        _z=np.empty(6 + 3 * accel_walk + 3 * gyro_walk),
        _tmp=np.zeros(3),
        _sample=ImuSample(0.0, np.zeros(3), np.zeros(3)),
    )


def naive_imu_sample(imu, time_s, specific_force_body, angular_rate_body, dt):
    """One IMU at a time (pre-change body of ``Imu.sample``)."""
    z = imu._z
    imu._rng.standard_normal(out=z)
    tmp = imu._tmp
    out = imu._sample
    out.time_s = time_s

    i = 0
    p = imu.params.accel
    bias = imu.accelerometer.bias
    if imu._accel_walk:
        np.multiply(z[0:3], p.bias_instability * math.sqrt(dt), out=tmp)
        bias += tmp
        i = 3
    accel = out.accel
    np.add(specific_force_body, bias, out=accel)
    np.multiply(z[i : i + 3], p.noise_density, out=tmp)
    accel += tmp
    np.maximum(accel, -p.measurement_range, out=accel)
    np.minimum(accel, p.measurement_range, out=accel)
    i += 3

    p = imu.params.gyro
    bias = imu.gyroscope.bias
    if imu._gyro_walk:
        np.multiply(z[i : i + 3], p.bias_instability * math.sqrt(dt), out=tmp)
        bias += tmp
        i += 3
    gyro = out.gyro
    np.add(angular_rate_body, bias, out=gyro)
    np.multiply(z[i : i + 3], p.noise_density, out=tmp)
    gyro += tmp
    np.maximum(gyro, -p.measurement_range, out=gyro)
    np.minimum(gyro, p.measurement_range, out=gyro)
    return out


#: Readings past both triads' ranges (a 2000 deg/s gyro saturates near
#: 35 rad/s, a 16 g accelerometer near 157 m/s^2), so both clamps engage.
imu_truths = st.floats(-400.0, 400.0) | edge_values


@given(
    st.integers(1, 7),
    st.integers(0, 2**31 - 1),
    st.lists(
        st.tuples(
            st.lists(imu_truths, min_size=3, max_size=3),
            st.lists(imu_truths, min_size=3, max_size=3),
            st.sampled_from([0.01, 0.004]),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 5),
)
@settings(max_examples=150, deadline=None)
def test_imu_stack_matches_members_sampled_one_at_a_time(n, seed, ticks, copy_at):
    """The per-member float kernel == each member through the pre-change
    IMU, for one to seven members, a changing dt, truth past both clamps,
    NaN/inf/signed-zero truth, and a deep copy between ticks."""
    stack = ImuStack([seed + k * MEMBER_SEED_STRIDE for k in range(n)])
    alone = [naive_imu(seed + k * MEMBER_SEED_STRIDE) for k in range(n)]
    for tick, (force, rate, dt) in enumerate(ticks):
        if tick == copy_at:
            stack = copy.deepcopy(stack)
        force, rate = np.array(force), np.array(rate)
        with np.errstate(all="ignore"):
            got = stack.sample(tick * 0.01, force, rate, dt)
            for k, imu in enumerate(alone):
                want = naive_imu_sample(imu, tick * 0.01, force, rate, dt)
                assert got[k].time_s == want.time_s
                assert _bits(got[k].accel) == _bits(want.accel)
                assert _bits(got[k].gyro) == _bits(want.gyro)
                bias = np.concatenate([imu.accelerometer.bias, imu.gyroscope.bias])
                assert _bits(stack.bias[k]) == _bits(bias)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_vote_median_of_signed_zeros_and_nans_matches_numpy(n):
    """Exhaustive over small columns: every placement of -0.0, +0.0, 1.0,
    +-inf and two NaN payloads gives np.median's bits."""
    values = [0.0, -0.0, 1.0, math.inf, -math.inf, _QUIET_NAN, _PAYLOAD_NAN]
    columns = np.array(np.meshgrid(*[values] * n)).reshape(n, -1)
    columns = np.pad(columns, ((0, 0), (0, -columns.shape[1] % 6)))
    with np.errstate(all="ignore"):
        want = np.median(columns, axis=0)
    voter = Voter(num_members=n)
    for start in range(0, columns.shape[1], 6):
        block = columns[:, start : start + 6]
        samples = [ImuSample(0.0, row[:3].copy(), row[3:].copy()) for row in block]
        report = voter.update(samples, 0.01)
        assert _bits(report.median_accel) == _bits(want[start : start + 3])
        assert _bits(report.median_gyro) == _bits(want[start + 3 : start + 6])


# ---------------------------------------------------------------------------
# Physics: wind, motors, airframe and the rigid-body step
# ---------------------------------------------------------------------------


def naive_physics(physics: QuadrotorPhysics) -> QuadrotorPhysics:
    """A copy of ``physics`` with the pre-change work buffers attached."""
    oracle = copy.deepcopy(physics)
    oracle._accel = np.zeros(3)
    oracle._non_grav = np.zeros(3)
    oracle._q_conj = np.zeros(4)
    oracle._cross = np.zeros(3)
    wind = oracle.environment.wind
    wind._delta = np.zeros(3)
    motors = oracle.airframe.motors
    motors._cmd = np.zeros(motors.count)
    motors._delta = np.zeros(motors.count)
    airframe = oracle.airframe
    airframe._thrust_body = np.zeros(3)
    airframe._thrust_world = np.zeros(3)
    airframe._mg = np.zeros(3)
    airframe._force = np.zeros(3)
    airframe._torque = np.zeros(3)
    return oracle


def naive_wind_step(wind, dt):
    """Pre-change body of ``WindModel.step``."""
    if wind.gust_sigma_m_s > 0.0:
        decay = dt / wind.gust_tau_s
        wind._rng.standard_normal(out=wind._noise)
        np.multiply(wind._gust, -decay, out=wind._delta)
        np.multiply(wind._noise, wind.gust_sigma_m_s * np.sqrt(2.0 * decay), out=wind._noise)
        np.add(wind._delta, wind._noise, out=wind._delta)
        wind._gust += wind._delta
    np.add(wind.mean_wind_ned, wind._gust, out=wind._wind)
    return wind._wind


def naive_motor_step(motors, commands, dt):
    """Pre-change body of ``MotorBank.step``."""
    commands = np.asarray(commands, dtype=float)
    if commands.shape != (motors.count,):
        raise ValueError(f"expected {motors.count} motor commands, got {commands.shape}")
    np.maximum(commands, 0.0, out=motors._cmd)
    np.minimum(motors._cmd, 1.0, out=motors._cmd)
    alpha = builtin_clamp(dt / TIME_CONSTANT_S, 0.0, 1.0)
    np.subtract(motors._cmd, motors._effective, out=motors._delta)
    motors._delta *= alpha
    motors._effective += motors._delta
    np.multiply(motors._effective, motors._effective, out=motors._thrust)
    motors._thrust *= MAX_THRUST_N
    return motors._thrust


def naive_forces_and_torques(airframe, thrusts_n, quaternion, velocity_ned, angular_rate_body, env):
    """Pre-change body of ``QuadrotorAirframe.forces_and_torques``."""
    p = airframe_module
    total_thrust = float(np.sum(thrusts_n))
    tb = airframe._thrust_body
    tb[2] = -total_thrust
    quat_rotate_into(quaternion, tb, airframe._thrust_world)
    v_rel = airframe._v_rel
    np.subtract(velocity_ned, env.wind.current_wind_ned, out=v_rel)
    speed = float(np.sqrt(v_rel @ v_rel))
    np.multiply(
        v_rel,
        -(0.5 * AIR_DENSITY_KG_M3 * p.DRAG_AREA_M2 * speed + p.LINEAR_DRAG_COEFF),
        out=v_rel,
    )
    force = airframe._force
    np.add(airframe._thrust_world, v_rel, out=force)
    np.multiply(GRAVITY_NED, airframe.mass_kg, out=airframe._mg)
    np.add(force, airframe._mg, out=force)
    positions = airframe._positions
    tau_x = float(-np.dot(positions[:, 1], thrusts_n))
    tau_y = float(np.dot(positions[:, 0], thrusts_n))
    tau_z = float(np.dot(airframe._spins, thrusts_n)) * p.TORQUE_RATIO_M
    w = angular_rate_body
    w0 = w[0]
    w1 = w[1]
    w2 = w[2]
    neg_ad = -p.ANGULAR_DAMPING
    adl = p.ANGULAR_DAMPING_LINEAR
    torque = airframe._torque
    torque[0] = tau_x + ((neg_ad * w0) * abs(w0) - adl * w0)
    torque[1] = tau_y + ((neg_ad * w1) * abs(w1) - adl * w1)
    torque[2] = tau_z + ((neg_ad * w2) * abs(w2) - adl * w2)
    return force, torque


def naive_clamp_vec_inplace(vec, max_norm):
    """Pre-change ``sim.dynamics._clamp_vec_inplace``."""
    norm_sq = float(vec @ vec)
    if norm_sq > max_norm * max_norm:
        np.multiply(vec, max_norm / np.sqrt(norm_sq), out=vec)


def naive_handle_ground(physics, dt):
    """Pre-change body of ``QuadrotorPhysics._handle_ground``."""
    below = physics.state.position_ned[2] >= 0.0
    if below and not physics.on_ground:
        physics.last_contact = GroundContact(
            time_s=physics.time_s,
            impact_speed_m_s=physics.state.speed_m_s,
            vertical_speed_m_s=float(physics.state.velocity_ned[2]),
            tilt_rad=physics.state.tilt_rad,
        )
    if below:
        physics.on_ground = True
        physics.state.position_ned[2] = 0.0
        if physics.state.velocity_ned[2] > 0.0:
            physics.state.velocity_ned[2] = 0.0
        physics.state.velocity_ned[:2] *= max(0.0, 1.0 - 8.0 * dt)
        physics.state.angular_rate_body *= max(0.0, 1.0 - 12.0 * dt)
        roll, pitch, yaw = quat_to_euler(physics.state.quaternion)
        if abs(roll) < 0.35 and abs(pitch) < 0.35:
            physics.state.quaternion = quat_from_euler(
                roll * max(0.0, 1.0 - 5.0 * dt), pitch * max(0.0, 1.0 - 5.0 * dt), yaw
            )
    elif physics.state.altitude_m > 0.02:
        physics.on_ground = False


def naive_physics_step(physics, motor_commands, dt):
    """Pre-change body of ``QuadrotorPhysics.step``, calling the pre-change
    wind, motor, airframe, clamp and ground bodies above."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    env = physics.environment
    naive_wind_step(env.wind, dt)
    thrusts = naive_motor_step(physics.airframe.motors, motor_commands, dt)
    force_world, torque_body = naive_forces_and_torques(
        physics.airframe,
        thrusts,
        physics.state.quaternion,
        physics.state.velocity_ned,
        physics.state.angular_rate_body,
        env,
    )
    mass = physics.airframe.mass_kg
    if physics.on_ground and force_world[2] > 0.0:
        force_world[2] = 0.0
    accel_world = physics._accel
    np.divide(force_world, mass, out=accel_world)
    np.subtract(accel_world, GRAVITY_NED, out=physics._non_grav)
    quat_conjugate_into(physics.state.quaternion, physics._q_conj)
    quat_rotate_into(physics._q_conj, physics._non_grav, physics.specific_force_body)
    w = physics.state.angular_rate_body
    np.matmul(physics.airframe.inertia, w, out=physics._iw)
    iw = physics._iw
    w0 = w[0]
    w1 = w[1]
    w2 = w[2]
    physics._cross[0] = w1 * iw[2] - w2 * iw[1]
    physics._cross[1] = w2 * iw[0] - w0 * iw[2]
    physics._cross[2] = w0 * iw[1] - w1 * iw[0]
    np.subtract(torque_body, physics._cross, out=physics._tau_net)
    np.matmul(physics.airframe.inertia_inv, physics._tau_net, out=physics._w_dot)
    w_dot = physics._w_dot
    v = physics.state.velocity_ned
    v[0] = v[0] + accel_world[0] * dt
    v[1] = v[1] + accel_world[1] * dt
    v[2] = v[2] + accel_world[2] * dt
    naive_clamp_vec_inplace(v, _MAX_SPEED_M_S)
    w[0] = w[0] + w_dot[0] * dt
    w[1] = w[1] + w_dot[1] * dt
    w[2] = w[2] + w_dot[2] * dt
    naive_clamp_vec_inplace(w, _MAX_RATE_RAD_S)
    pos = physics.state.position_ned
    pos[0] = pos[0] + v[0] * dt
    pos[1] = pos[1] + v[1] * dt
    pos[2] = pos[2] + v[2] * dt
    quat_integrate_into(physics.state.quaternion, w, dt, out=physics.state.quaternion)
    naive_handle_ground(physics, dt)
    physics.time_s += dt
    return physics.state


def _physics_state(physics) -> list:
    """Everything the physics step writes that the rest of the loop reads."""
    state = physics.state
    contact = physics.last_contact
    return [
        state.position_ned,
        state.velocity_ned,
        state.quaternion,
        state.angular_rate_body,
        physics.specific_force_body,
        physics.airframe.motors._effective,
        physics.airframe.motors._thrust,
        physics.environment.wind._gust,
        physics.environment.wind._wind,
        [physics.time_s],
        [] if contact is None else [contact.time_s, contact.impact_speed_m_s,
                                    contact.vertical_speed_m_s, contact.tilt_rad],
    ]


motor_commands = st.floats(-0.5, 1.5) | edge_values


@st.composite
def flights(draw):
    """A vehicle state near the ground or aloft, fast or spinning past the
    clamps, and a few ticks of motor commands with edge values."""
    altitude = draw(st.floats(-0.5, 3.0) | st.sampled_from([0.0, -0.0, 0.015, 0.03]))
    speed_scale = draw(st.sampled_from([1.0, 30.0, 80.0]))
    rate_scale = draw(st.sampled_from([1.0, 30.0, 80.0]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    state = RigidBodyState(
        position_ned=np.array([draw(coords), draw(coords), -altitude]),
        velocity_ned=np.array([draw(unit) * speed_scale for _ in range(3)]),
        quaternion=quat_from_euler(draw(angles) * 0.5, draw(angles) * 0.5, draw(angles)),
        angular_rate_body=np.array([draw(unit) * rate_scale for _ in range(3)]),
    )
    wind = WindModel(
        mean_wind_ned=np.array([draw(unit) * 5.0 for _ in range(3)]),
        gust_sigma_m_s=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    airframe = QuadrotorAirframe(draw(st.sampled_from([1.5, 0.9, 2.4])))
    physics = QuadrotorPhysics(airframe, Environment(wind=wind), state)
    physics.airframe.motors._effective[:] = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    ticks = draw(
        st.lists(
            st.tuples(
                st.lists(motor_commands, min_size=4, max_size=4),
                st.sampled_from([0.01, 0.004, 0.02]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return physics, ticks, draw(st.integers(0, len(ticks)))


def _fly_both(physics, ticks, copy_at=None):
    """Step ``physics`` and its numpy oracle tick by tick; compare bits."""
    oracle = naive_physics(physics)
    for i, (commands, dt) in enumerate(ticks):
        if i == copy_at:
            physics = copy.deepcopy(physics)
        commands = np.array(commands)
        with np.errstate(all="ignore"):
            naive_physics_step(oracle, commands, dt)
            physics.step(commands, dt)
        assert physics.on_ground == oracle.on_ground
        for got, want in zip(_physics_state(physics), _physics_state(oracle)):
            assert _bits_or_both_nan(got, want)
    return physics


@given(flights())
@settings(max_examples=300, deadline=None)
def test_physics_step_matches_numpy_oracle(flight):
    """Float-kernel physics == the numpy wind, motor, airframe and step
    bodies, tick after tick: ground contact, touchdown and lift-off,
    both clamps, NaN/inf commands, and a deep copy mid-flight."""
    _fly_both(*flight)


def _vehicle(down_m, velocity, rate=(0.0, 0.0, 0.0), on_ground=False):
    physics = QuadrotorPhysics(
        initial_state=RigidBodyState(
            position_ned=np.array([0.0, 0.0, down_m]),
            velocity_ned=np.array(velocity),
            angular_rate_body=np.array(rate),
        )
    )
    physics.on_ground = on_ground
    return physics


def test_physics_oracle_covers_contact_and_clamps():
    """Touchdown, lift-off and both clamps each happen, oracle-checked."""
    touchdown = _fly_both(_vehicle(-0.05, [0.0, 0.0, 9.0]), [([0.0] * 4, 0.01)])
    assert touchdown.on_ground and touchdown.last_contact is not None
    liftoff = _fly_both(_vehicle(-0.019, [0.0, 0.0, -5.0], on_ground=True), [([1.0] * 4, 0.01)])
    assert not liftoff.on_ground
    fast = _fly_both(_vehicle(-50.0, [70.0, 0.0, 0.0], rate=(0.0, 200.0, 0.0)), [([0.5] * 4, 0.01)])
    assert math.isclose(fast.state.speed_m_s, _MAX_SPEED_M_S)
    rate = fast.state.angular_rate_body
    assert math.isclose(math.sqrt(float(rate.dot(rate))), _MAX_RATE_RAD_S)


# ---------------------------------------------------------------------------
# EKF prediction
# ---------------------------------------------------------------------------


def naive_ekf(ekf: Ekf) -> Ekf:
    """A copy of ``ekf`` with the pre-change work buffers attached."""
    oracle = copy.deepcopy(ekf)
    oracle._t33b = np.zeros((3, 3))
    return oracle


def naive_predict(ekf, imu, dt):
    """Pre-change body of ``Ekf.predict``."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    p = ekf_module
    omega = ekf._omega
    accel = ekf._accel
    np.subtract(imu.gyro, ekf.gyro_bias, out=omega)
    np.subtract(imu.accel, ekf.accel_bias, out=accel)
    ekf.rate_body = omega
    g0 = imu.gyro[0]
    g1 = imu.gyro[1]
    g2 = imu.gyro[2]
    if ekf._have_lg and g0 == ekf._lg0 and g1 == ekf._lg1 and g2 == ekf._lg2:
        ekf._gyro_flatline_count += 1
    else:
        ekf._gyro_flatline_count = 0
    ekf._lg0 = g0
    ekf._lg1 = g1
    ekf._lg2 = g2
    ekf._have_lg = True
    gyro_noise = p.GYRO_NOISE if ekf._gyro_flatline_count < 20 else 0.8
    a0 = imu.accel[0]
    a1 = imu.accel[1]
    a2 = imu.accel[2]
    if ekf._have_la and a0 == ekf._la0 and a1 == ekf._la1 and a2 == ekf._la2:
        ekf._accel_flatline_count += 1
    else:
        ekf._accel_flatline_count = 0
    ekf._la0 = a0
    ekf._la1 = a1
    ekf._la2 = a2
    ekf._have_la = True
    if ekf._gyro_flatline_count >= 50 and ekf._accel_flatline_count >= 50:
        ekf.imu_stale_latched = True
    rot = ekf._rot
    quat_to_rotation_matrix_into(ekf.quaternion, rot)
    accel_world = ekf._accel_world
    np.matmul(rot, accel, out=accel_world)
    accel_world += GRAVITY_NED
    pos = ekf.position_ned
    vel = ekf.velocity_ned
    pos[0] = pos[0] + vel[0] * dt + 0.5 * accel_world[0] * dt * dt
    pos[1] = pos[1] + vel[1] * dt + 0.5 * accel_world[1] * dt * dt
    pos[2] = pos[2] + vel[2] * dt + 0.5 * accel_world[2] * dt * dt
    vel[0] = vel[0] + accel_world[0] * dt
    vel[1] = vel[1] + accel_world[1] * dt
    vel[2] = vel[2] + accel_world[2] * dt
    quat_integrate_into(ekf.quaternion, omega, dt, out=ekf.quaternion)
    phi = ekf._phi
    np.copyto(phi, ekf._eye15)
    s33 = ekf._skew
    s33[0, 1] = -omega[2]
    s33[0, 2] = omega[1]
    s33[1, 0] = omega[2]
    s33[1, 2] = -omega[0]
    s33[2, 0] = -omega[1]
    s33[2, 1] = omega[0]
    np.multiply(s33, dt, out=ekf._t33)
    phi[0:3, 0:3] -= ekf._t33
    np.multiply(ekf._neg_eye3, dt, out=ekf._t33)
    phi[0:3, 9:12] = ekf._t33
    s33[0, 1] = -accel[2]
    s33[0, 2] = accel[1]
    s33[1, 0] = accel[2]
    s33[1, 2] = -accel[0]
    s33[2, 0] = -accel[1]
    s33[2, 1] = accel[0]
    np.negative(rot, out=ekf._neg_rot)
    np.matmul(ekf._neg_rot, s33, out=ekf._t33b)
    np.multiply(ekf._t33b, dt, out=ekf._t33b)
    phi[3:6, 0:3] = ekf._t33b
    np.multiply(rot, dt, out=ekf._t33)
    np.negative(ekf._t33, out=ekf._t33)
    phi[3:6, 12:15] = ekf._t33
    np.multiply(ekf._I3, dt, out=ekf._t33)
    phi[6:9, 3:6] = ekf._t33
    np.matmul(phi, ekf.covariance, out=ekf._cov_tmp)
    np.matmul(ekf._cov_tmp, phi.T, out=ekf.covariance)
    diag = ekf.covariance.ravel()[::16]
    diag[_TH] += (gyro_noise**2) * dt
    diag[_V] += (p.ACCEL_NOISE**2) * dt
    diag[_BG] += (p.GYRO_BIAS_WALK**2) * dt
    diag[_BA] += (p.ACCEL_BIAS_WALK**2) * dt
    ekf.time_s = imu.time_s


def _ekf_state(ekf) -> list:
    """Everything ``predict`` writes."""
    return [
        ekf.quaternion,
        ekf.velocity_ned,
        ekf.position_ned,
        ekf.covariance,
        ekf.rate_body,
        ekf._phi,
        [ekf.time_s],
    ]


imu_values = st.floats(-40.0, 40.0) | edge_values


@st.composite
def predictions(draw):
    """A filter state and a few IMU ticks: fresh or repeated (flatlined)
    triads, edge values, and dt changing between calls."""
    ekf = Ekf(initial_yaw_rad=draw(angles))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    ekf.quaternion = draw(unit_quats() | raw_quats())
    ekf.velocity_ned[:] = [draw(unit) * 20.0 for _ in range(3)]
    ekf.gyro_bias[:] = [draw(unit) * 0.4 for _ in range(3)]
    ekf.accel_bias[:] = [draw(unit) for _ in range(3)]
    root = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).uniform(-1.0, 1.0, (15, 15))
    ekf.covariance = root @ root.T * draw(st.sampled_from([1e-6, 1e-2, 1.0]))
    ekf._gyro_flatline_count = draw(st.sampled_from([0, 18, 48]))
    ekf._accel_flatline_count = draw(st.sampled_from([0, 48]))
    triad = st.lists(imu_values, min_size=3, max_size=3)
    ticks = []
    for _ in range(draw(st.integers(1, 6))):
        if ticks and draw(st.booleans()):
            gyro, accel = ticks[-1][0], ticks[-1][1]
        else:
            gyro, accel = draw(triad), draw(triad)
        ticks.append((gyro, accel, draw(st.sampled_from([0.01, 0.004, 0.02]))))
    return ekf, ticks, draw(st.integers(0, len(ticks)))


@given(predictions())
@settings(max_examples=300, deadline=None)
def test_predict_matches_numpy_oracle(run):
    """Float-kernel predict == numpy predict, tick after tick: flatlined
    triads, dt changes (Phi's cached blocks), edge values and a deep copy
    between calls."""
    ekf, ticks, copy_at = run
    if ekf._gyro_flatline_count:
        ekf._have_lg = True
        ekf._lg0, ekf._lg1, ekf._lg2 = ticks[0][0]
    if ekf._accel_flatline_count:
        ekf._have_la = True
        ekf._la0, ekf._la1, ekf._la2 = ticks[0][1]
    oracle = naive_ekf(ekf)
    for i, (gyro, accel, dt) in enumerate(ticks):
        if i == copy_at:
            ekf = copy.deepcopy(ekf)
        imu = ImuSample(i * 0.01, np.array(accel), np.array(gyro))
        with np.errstate(all="ignore"):
            naive_predict(oracle, imu, dt)
            ekf.predict(imu, dt)
        assert ekf._gyro_flatline_count == oracle._gyro_flatline_count
        assert ekf._accel_flatline_count == oracle._accel_flatline_count
        assert ekf.imu_stale_latched == oracle.imu_stale_latched
        for got, want in zip(_ekf_state(ekf), _ekf_state(oracle)):
            assert _bits_or_both_nan(got, want)


def test_process_noise_follows_gyro_noise_and_dt():
    """The cached process-noise diagonal is rewritten when a flatlined
    gyro raises the noise (at the 20th repeat) or dt changes."""
    ekf = Ekf()
    oracle = naive_ekf(ekf)
    imu = ImuSample(0.0, np.array([0.1, -0.2, -9.8]), np.array([0.01, 0.02, -0.03]))
    noises = set()
    for dt in [0.01] * 24 + [0.004, 0.01]:
        naive_predict(oracle, imu, dt)
        ekf.predict(imu, dt)
        noises.add(ekf._q_key)
        assert _bits(ekf.covariance) == _bits(oracle.covariance)
    assert noises == {
        (ekf_module.GYRO_NOISE, 0.01),
        (0.8, 0.01),
        (0.8, 0.004),
    }


def test_phi_constants_follow_dt():
    """Phi's dt-only blocks are rewritten when dt changes, -0.0 included."""
    ekf = Ekf()
    imu = ImuSample(0.0, np.array([0.1, -0.2, -9.8]), np.array([0.01, 0.02, -0.03]))
    for dt in (0.01, 0.004, 0.01):
        ekf.predict(imu, dt)
        assert _bits(ekf._phi[0:3, 9:12]) == _bits(-np.eye(3) * dt)
        assert _bits(ekf._phi[6:9, 3:6]) == _bits(np.eye(3) * dt)


# ---------------------------------------------------------------------------
# Flight-recorder row
# ---------------------------------------------------------------------------


def naive_record_row(system, time_s: float, fault_active: bool) -> np.ndarray:
    """The row as the numpy recorder wrote it (phase and failsafe seen
    first, so both codes are 0)."""
    row = np.zeros(len(COLUMNS))
    truth = system.physics.state
    ekf = system.ekf
    row[0] = time_s
    np.concatenate(
        (
            truth.position_ned,
            truth.velocity_ned,
            truth.quaternion,
            truth.angular_rate_body,
            ekf.position_ned,
            ekf.velocity_ned,
            ekf.quaternion,
            system._imu_sample.gyro,
            system.physics.airframe.motors.effective_commands,
        ),
        out=row[1:31],
    )
    row[31] = system._last_attitude_std
    row[32] = 0
    row[33] = 0
    row[34] = 1.0 if fault_active else 0.0
    row[35] = system.redundancy.primary
    return row


@given(
    st.lists(st.floats() | edge_values, min_size=32, max_size=32),
    st.booleans(),
    st.integers(0, 2),
)
def test_packed_recorder_row_matches_numpy(values, fault_active, primary):
    """The struct-packed row == the numpy row byte for byte, NaN
    payloads, signed zeros and infinities included, and again after a
    deep copy of the recorder."""
    system = fake_system()
    truth = system.physics.state
    ekf = system.ekf
    sources = (
        truth.position_ned, truth.velocity_ned, truth.quaternion, truth.angular_rate_body,
        ekf.position_ned, ekf.velocity_ned, ekf.quaternion, system._imu_sample.gyro,
        system.physics.airframe.motors.effective_commands,
    )
    start = 1
    for array in sources:
        array[:] = values[start : start + len(array)]
        start += len(array)
    system._last_attitude_std = values[31]
    system.redundancy.primary = primary
    want = _bits(naive_record_row(system, values[0], fault_active))
    recorder = FlightRecorder(rate_hz=100.0, seconds=0.02)
    recorder.record(system, values[0], fault_active)
    assert _bits(recorder.rows()[-1]) == want
    twin = copy.deepcopy(recorder)
    twin.record(system, values[0], fault_active)
    assert _bits(twin.rows()[-1]) == want
