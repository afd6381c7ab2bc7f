"""Unit tests for quaternion algebra."""

import math

import numpy as np
import pytest

from repro.mathutils import (
    quat_angle_between,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_euler,
    quat_from_rotation_matrix,
    quat_identity,
    quat_integrate,
    quat_inverse,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_rotate_inverse,
    quat_to_euler,
    quat_to_rotation_matrix,
)


def test_identity_is_unit():
    q = quat_identity()
    assert q.shape == (4,)
    assert np.allclose(q, [1.0, 0.0, 0.0, 0.0])


def test_normalize_unit_norm():
    q = quat_normalize(np.array([1.0, 2.0, 3.0, 4.0]))
    assert math.isclose(float(q @ q), 1.0, rel_tol=1e-12)


def test_normalize_zero_returns_identity():
    assert np.allclose(quat_normalize(np.zeros(4)), quat_identity())


def test_multiply_identity_is_noop():
    q = quat_from_euler(0.2, -0.3, 1.1)
    assert np.allclose(quat_multiply(q, quat_identity()), q)
    assert np.allclose(quat_multiply(quat_identity(), q), q)


def test_multiply_inverse_gives_identity():
    q = quat_from_euler(0.4, 0.1, -2.0)
    prod = quat_multiply(q, quat_inverse(q))
    assert np.allclose(prod, quat_identity(), atol=1e-12)


def test_rotate_identity_preserves_vector():
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(quat_rotate(quat_identity(), v), v)


def test_rotate_90deg_about_z():
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), math.pi / 2)
    out = quat_rotate(q, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)


def test_rotate_then_inverse_round_trip():
    q = quat_from_euler(0.3, -0.8, 2.2)
    v = np.array([0.7, -1.3, 2.9])
    assert np.allclose(quat_rotate_inverse(q, quat_rotate(q, v)), v, atol=1e-12)


def test_rotate_matches_rotation_matrix():
    q = quat_from_euler(-0.5, 0.25, 0.9)
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(quat_rotate(q, v), quat_to_rotation_matrix(q) @ v, atol=1e-12)


def test_euler_round_trip():
    roll, pitch, yaw = 0.3, -0.6, 2.4
    back = quat_to_euler(quat_from_euler(roll, pitch, yaw))
    assert np.allclose(back, [roll, pitch, yaw], atol=1e-12)


def test_euler_gimbal_lock_clamped():
    q = quat_from_euler(0.0, math.pi / 2, 0.0)
    _, pitch, _ = quat_to_euler(q)
    assert math.isclose(pitch, math.pi / 2, rel_tol=1e-6)


def test_rotation_matrix_round_trip():
    q = quat_from_euler(0.1, 0.2, 0.3)
    q2 = quat_from_rotation_matrix(quat_to_rotation_matrix(q))
    # q and -q encode the same rotation.
    assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9


@pytest.mark.parametrize(
    "trace_case",
    [
        quat_from_euler(3.0, 0.0, 0.0),  # trace-negative branches
        quat_from_euler(0.0, 3.0, 0.0),
        quat_from_euler(0.0, 0.0, 3.0),
    ],
)
def test_rotation_matrix_round_trip_large_angles(trace_case):
    q2 = quat_from_rotation_matrix(quat_to_rotation_matrix(trace_case))
    assert quat_angle_between(trace_case, q2) < 1e-9


def test_integrate_zero_rate_is_noop():
    q = quat_from_euler(0.1, 0.1, 0.1)
    assert np.allclose(quat_integrate(q, np.zeros(3), 0.01), q)


def test_integrate_constant_rate_accumulates_angle():
    q = quat_identity()
    rate = np.array([0.0, 0.0, 1.0])  # 1 rad/s yaw
    for _ in range(100):
        q = quat_integrate(q, rate, 0.01)
    _, _, yaw = quat_to_euler(q)
    assert math.isclose(yaw, 1.0, rel_tol=1e-6)


def test_integrate_preserves_norm_at_high_rate():
    q = quat_identity()
    rate = np.array([30.0, -20.0, 10.0])
    for _ in range(1000):
        q = quat_integrate(q, rate, 0.01)
    assert math.isclose(float(q @ q), 1.0, rel_tol=1e-9)


def test_angle_between_self_is_zero():
    q = quat_from_euler(0.5, 0.5, 0.5)
    assert quat_angle_between(q, q) < 1e-9


def test_angle_between_known_rotation():
    q1 = quat_identity()
    q2 = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.7)
    assert math.isclose(quat_angle_between(q1, q2), 0.7, rel_tol=1e-9)


def test_conjugate_negates_vector_part():
    q = np.array([0.5, 0.1, -0.2, 0.3])
    assert np.allclose(quat_conjugate(q), [0.5, -0.1, 0.2, -0.3])


def test_from_axis_angle_zero_angle_identity():
    assert np.allclose(
        quat_from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.0), quat_identity()
    )
