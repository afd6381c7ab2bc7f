"""Property tests: in-place hot-loop math equals its allocating original.

The performance pass replaced allocating numpy expressions with
preallocated-buffer variants. These hypothesis properties pin the
*bit-level* contract between each pair — not approximate closeness —
because the golden step traces pin the optimised step loop to the bit:

* every ``quat_*_into`` variant vs its allocating counterpart
  (including the aliasing patterns the EKF and controllers use);
* the buffered :class:`repro.control.mixer.Mixer` vs the allocating
  :func:`naive_mix`;
* the in-place EKF scalar Kalman update vs the allocating
  :func:`naive_scalar_update`.

The two ``naive_*`` oracles are the pre-optimisation method bodies,
kept verbatim (``self`` renamed) as plain functions.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.mixer import Mixer
from repro.estimation.ekf import _BA, _BG, _P, _TH, _V, Ekf
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
    quat_to_rotation_matrix,
    quat_to_rotation_matrix_into,
)

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


# ---------------------------------------------------------------------------
# Mixer desaturation
# ---------------------------------------------------------------------------


def naive_mix(mixer: Mixer, collective: float, torque_cmd: np.ndarray) -> np.ndarray:
    """Allocating mixer (pre-optimisation body of ``Mixer.mix``)."""
    g = mixer.gains
    weights = np.array([g.roll_pitch, g.roll_pitch, g.yaw])
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


@given(
    st.floats(-0.5, 2.0, allow_nan=False),
    vectors(st.floats(-3.0, 3.0, allow_nan=False)),
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
    p = ekf.params
    dq = quat_from_axis_angle(dx[_TH], float(np.linalg.norm(dx[_TH])))
    ekf.quaternion = quat_normalize(quat_multiply(ekf.quaternion, dq))
    ekf.velocity_ned = ekf.velocity_ned + dx[_V]
    ekf.position_ned = ekf.position_ned + dx[_P]
    ekf.gyro_bias = np.clip(
        ekf.gyro_bias + dx[_BG], -p.gyro_bias_limit, p.gyro_bias_limit
    )
    ekf.accel_bias = np.clip(
        ekf.accel_bias + dx[_BA], -p.accel_bias_limit, p.accel_bias_limit
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
