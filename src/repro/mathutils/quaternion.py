"""Hamilton quaternion algebra on plain numpy arrays.

Quaternions are ``numpy.ndarray`` of shape ``(4,)`` ordered ``[w, x, y, z]``
and represent body-to-world rotations (see :mod:`repro.mathutils`). Keeping
them as raw arrays instead of a class keeps the EKF and simulator inner
loops allocation-light; all functions return new arrays and never mutate
their inputs.

The ``*_into`` variants at the bottom of the module are the hot-loop
forms: they write into a caller-owned ``out`` buffer instead of
allocating, but are required (and tested, see
``tests/test_property_inplace_math.py``) to produce bit-identical
results to their allocating counterparts — same operations, same
order, same rounding.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_EPS = 1e-12


def quat_identity() -> np.ndarray:
    """Return the identity rotation ``[1, 0, 0, 0]``."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return ``q`` scaled to unit norm.

    A zero (or numerically dead) quaternion normalises to the identity,
    which is the only safe fallback inside an estimator loop.
    """
    q = np.asarray(q, dtype=float)
    norm = math.sqrt(float(q.dot(q)))
    if norm < _EPS:
        return quat_identity()
    return q / norm


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product ``q1 * q2`` (apply ``q2`` first, then ``q1``)."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Return the conjugate ``[w, -x, -y, -z]``."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_inverse(q: np.ndarray) -> np.ndarray:
    """Return the inverse rotation (conjugate of the normalised input)."""
    return quat_conjugate(quat_normalize(q))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate body-frame vector ``v`` into the world frame.

    Uses the expanded rotation formula (no intermediate quaternion
    products), which is the cheapest correct form for 3-vectors.
    """
    w, x, y, z = q
    vx, vy, vz = v
    # t = 2 * (q_vec x v)
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    # v' = v + w * t + q_vec x t
    return np.array(
        [
            vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx),
        ]
    )


def quat_rotate_inverse(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate world-frame vector ``v`` into the body frame."""
    return quat_rotate(quat_conjugate(q), v)


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Quaternion for a rotation of ``angle`` radians about ``axis``."""
    axis = np.asarray(axis, dtype=float)
    norm = math.sqrt(float(axis.dot(axis)))
    if norm < _EPS or abs(angle) < _EPS:
        return quat_identity()
    half = 0.5 * angle
    s = math.sin(half) / norm
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Quaternion from aerospace ZYX Euler angles (radians)."""
    cr, sr = math.cos(roll * 0.5), math.sin(roll * 0.5)
    cp, sp = math.cos(pitch * 0.5), math.sin(pitch * 0.5)
    cy, sy = math.cos(yaw * 0.5), math.sin(yaw * 0.5)
    return np.array(
        [
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        ]
    )


def quat_to_euler(q: np.ndarray) -> tuple[float, float, float]:
    """Return ``(roll, pitch, yaw)`` in radians for quaternion ``q``.

    Pitch is clamped to +/- pi/2 at the gimbal-lock singularity.
    """
    w, x, y, z = quat_normalize(q)
    roll = math.atan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    sinp = 2.0 * (w * y - z * x)
    if sinp >= 1.0:
        pitch = math.pi / 2.0
    elif sinp <= -1.0:
        pitch = -math.pi / 2.0
    else:
        pitch = math.asin(sinp)
    yaw = math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return roll, pitch, yaw


def quat_to_rotation_matrix(q: np.ndarray) -> np.ndarray:
    """Return the 3x3 body-to-world rotation matrix for ``q``."""
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_rotation_matrix(rot: np.ndarray) -> np.ndarray:
    """Quaternion for a 3x3 rotation matrix (Shepperd's method)."""
    rot = np.asarray(rot, dtype=float)
    trace = rot[0, 0] + rot[1, 1] + rot[2, 2]
    if trace > 0.0:
        s = max(math.sqrt(trace + 1.0) * 2.0, _EPS)
        return quat_normalize(
            np.array(
                [
                    0.25 * s,
                    (rot[2, 1] - rot[1, 2]) / s,
                    (rot[0, 2] - rot[2, 0]) / s,
                    (rot[1, 0] - rot[0, 1]) / s,
                ]
            )
        )
    if rot[0, 0] > rot[1, 1] and rot[0, 0] > rot[2, 2]:
        s = max(math.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2.0, _EPS)
        q = [
            (rot[2, 1] - rot[1, 2]) / s,
            0.25 * s,
            (rot[0, 1] + rot[1, 0]) / s,
            (rot[0, 2] + rot[2, 0]) / s,
        ]
    elif rot[1, 1] > rot[2, 2]:
        s = max(math.sqrt(1.0 + rot[1, 1] - rot[0, 0] - rot[2, 2]) * 2.0, _EPS)
        q = [
            (rot[0, 2] - rot[2, 0]) / s,
            (rot[0, 1] + rot[1, 0]) / s,
            0.25 * s,
            (rot[1, 2] + rot[2, 1]) / s,
        ]
    else:
        s = max(math.sqrt(1.0 + rot[2, 2] - rot[0, 0] - rot[1, 1]) * 2.0, _EPS)
        q = [
            (rot[1, 0] - rot[0, 1]) / s,
            (rot[0, 2] + rot[2, 0]) / s,
            (rot[1, 2] + rot[2, 1]) / s,
            0.25 * s,
        ]
    return quat_normalize(np.array(q))


def quat_integrate(q: np.ndarray, omega_body: np.ndarray, dt: float) -> np.ndarray:
    """Integrate body angular rate ``omega_body`` (rad/s) over ``dt``.

    Uses the exact exponential map of the rotation increment, which stays
    stable for the large rates produced by gyro Min/Max fault injections.
    A non-finite rotation angle gives a NaN quaternion.
    """
    omega_body = np.asarray(omega_body, dtype=float)
    angle = math.sqrt(float(omega_body.dot(omega_body))) * dt
    if math.isinf(angle):
        # sin/cos of an infinite angle raise; a NaN angle already
        # propagates as NaN through the exponential map.
        return np.full(4, math.nan)
    if angle < _EPS:
        dq = np.array(
            [
                1.0,
                0.5 * omega_body[0] * dt,
                0.5 * omega_body[1] * dt,
                0.5 * omega_body[2] * dt,
            ]
        )
    else:
        # quat_from_axis_angle normalises the axis, so this is exactly a
        # rotation of |omega| * dt about the unit rate direction.
        dq = quat_from_axis_angle(omega_body, angle)
    return quat_normalize(quat_multiply(q, dq))


def quat_angle_between(q1: np.ndarray, q2: np.ndarray) -> float:
    """Smallest rotation angle (radians) taking ``q1`` to ``q2``."""
    dot = abs(float(quat_normalize(q1).dot(quat_normalize(q2))))
    dot = min(1.0, dot)
    return 2.0 * math.acos(dot)


# ---------------------------------------------------------------------------
# In-place variants for preallocated hot-loop buffers.
#
# Each mirrors the allocating function above operation-for-operation so the
# results are bit-identical (dot products stay as array dots — scalarising
# them would change rounding under BLAS FMA). Scalars are unpacked with
# ``.tolist()``: Python floats round exactly as numpy float64 scalars do,
# at a fraction of the dispatch cost, and every division is guarded by an
# ``_EPS`` floor. ``out`` may alias the inputs unless noted: every scalar
# is read before anything is written.
# ---------------------------------------------------------------------------


def quat_normalize_into(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place :func:`quat_normalize`; ``out`` may alias ``q``."""
    norm = math.sqrt(float(q.dot(q)))
    if norm < _EPS:
        out[0] = 1.0
        out[1] = 0.0
        out[2] = 0.0
        out[3] = 0.0
        return out
    w, x, y, z = q.tolist()
    out[0] = w / norm
    out[1] = x / norm
    out[2] = y / norm
    out[3] = z / norm
    return out


def quat_multiply_into(q1: np.ndarray, q2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place :func:`quat_multiply`; ``out`` may alias either input."""
    w1, x1, y1, z1 = q1.tolist()
    w2, x2, y2, z2 = q2.tolist()
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    out[0] = w
    out[1] = x
    out[2] = y
    out[3] = z
    return out


def quat_conjugate_into(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place :func:`quat_conjugate`; ``out`` may alias ``q``."""
    w, x, y, z = q.tolist()
    out[0] = w
    out[1] = -x
    out[2] = -y
    out[3] = -z
    return out


def quat_rotate_into(q: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place :func:`quat_rotate`; ``out`` may alias ``v``."""
    out[0], out[1], out[2] = quat_rotate_floats(q.tolist(), v.tolist())
    return out


def quat_rotate_floats(
    q: Sequence[float], v: Sequence[float]
) -> tuple[float, float, float]:
    """:func:`quat_rotate` on Python floats: ``q`` is ``(w, x, y, z)``."""
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def quat_from_axis_angle_into(
    axis: np.ndarray, angle: float, out: np.ndarray
) -> np.ndarray:
    """In-place :func:`quat_from_axis_angle`. ``out`` must not alias ``axis``."""
    norm = math.sqrt(float(axis.dot(axis)))
    if norm < _EPS or abs(angle) < _EPS:
        out[0] = 1.0
        out[1] = 0.0
        out[2] = 0.0
        out[3] = 0.0
        return out
    half = 0.5 * angle
    s = math.sin(half) / norm
    ax, ay, az = axis.tolist()
    out[0] = math.cos(half)
    out[1] = ax * s
    out[2] = ay * s
    out[3] = az * s
    return out


def quat_to_rotation_matrix_into(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place :func:`quat_to_rotation_matrix` (``out`` is 3x3)."""
    norm = math.sqrt(float(q.dot(q)))
    if norm < _EPS:
        w, x, y, z = 1.0, 0.0, 0.0, 0.0
    else:
        qw, qx, qy, qz = q.tolist()
        w = qw / norm
        x = qx / norm
        y = qy / norm
        z = qz / norm
    out[0, 0] = 1 - 2 * (y * y + z * z)
    out[0, 1] = 2 * (x * y - w * z)
    out[0, 2] = 2 * (x * z + w * y)
    out[1, 0] = 2 * (x * y + w * z)
    out[1, 1] = 1 - 2 * (x * x + z * z)
    out[1, 2] = 2 * (y * z - w * x)
    out[2, 0] = 2 * (x * z - w * y)
    out[2, 1] = 2 * (y * z + w * x)
    out[2, 2] = 1 - 2 * (x * x + y * y)
    return out


def quat_from_rotation_matrix_into(rot: np.ndarray, out: np.ndarray) -> np.ndarray:
    """In-place :func:`quat_from_rotation_matrix`."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    trace = r00 + r11 + r22
    if trace > 0.0:
        s = max(math.sqrt(trace + 1.0) * 2.0, _EPS)
        out[0] = 0.25 * s
        out[1] = (r21 - r12) / s
        out[2] = (r02 - r20) / s
        out[3] = (r10 - r01) / s
        return quat_normalize_into(out, out)
    if r00 > r11 and r00 > r22:
        s = max(math.sqrt(1.0 + r00 - r11 - r22) * 2.0, _EPS)
        out[0] = (r21 - r12) / s
        out[1] = 0.25 * s
        out[2] = (r01 + r10) / s
        out[3] = (r02 + r20) / s
    elif r11 > r22:
        s = max(math.sqrt(1.0 + r11 - r00 - r22) * 2.0, _EPS)
        out[0] = (r02 - r20) / s
        out[1] = (r01 + r10) / s
        out[2] = 0.25 * s
        out[3] = (r12 + r21) / s
    else:
        s = max(math.sqrt(1.0 + r22 - r00 - r11) * 2.0, _EPS)
        out[0] = (r10 - r01) / s
        out[1] = (r02 + r20) / s
        out[2] = (r12 + r21) / s
        out[3] = 0.25 * s
    return quat_normalize_into(out, out)


def quat_integrate_into(
    q: np.ndarray, omega_body: np.ndarray, dt: float, out: np.ndarray
) -> np.ndarray:
    """In-place :func:`quat_integrate`; ``out`` may alias ``q``."""
    norm = math.sqrt(float(omega_body.dot(omega_body)))
    angle = norm * dt
    wx, wy, wz = omega_body.tolist()
    if angle < _EPS:
        dw = 1.0
        dx = 0.5 * wx * dt
        dy = 0.5 * wy * dt
        dz = 0.5 * wz * dt
    elif norm < _EPS or abs(angle) < _EPS:
        # quat_from_axis_angle's own degenerate guard (reachable only for
        # pathological dt); keeps parity with the allocating path.
        dw, dx, dy, dz = 1.0, 0.0, 0.0, 0.0
    elif math.isinf(angle):
        # As in quat_integrate: an infinite angle gives NaN.
        out[:] = math.nan
        return out
    else:
        half = 0.5 * angle
        s = math.sin(half) / norm
        dw = math.cos(half)
        dx = wx * s
        dy = wy * s
        dz = wz * s
    w1, x1, y1, z1 = q.tolist()
    out[0] = w1 * dw - x1 * dx - y1 * dy - z1 * dz
    out[1] = w1 * dx + x1 * dw + y1 * dz - z1 * dy
    out[2] = w1 * dy - x1 * dz + y1 * dw + z1 * dx
    out[3] = w1 * dz + x1 * dy - y1 * dx + z1 * dw
    return quat_normalize_into(out, out)
