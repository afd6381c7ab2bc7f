"""Mathematical utilities shared by every subsystem.

The conventions used throughout the code base are fixed here once:

* World frame: **NED** (north, east, down), the PX4 local frame. Altitude
  above the origin is therefore ``-position[2]``.
* Body frame: **FRD** (forward, right, down).
* Quaternions are Hamilton quaternions stored as ``[w, x, y, z]`` and
  encode the body-to-world rotation: ``v_world = rotate(q, v_body)``.
* Euler angles are the aerospace ZYX sequence (yaw, pitch, roll).
"""

from repro.mathutils.quaternion import (
    quat_identity,
    quat_normalize,
    quat_multiply,
    quat_conjugate,
    quat_inverse,
    quat_rotate,
    quat_rotate_inverse,
    quat_from_axis_angle,
    quat_from_euler,
    quat_to_euler,
    quat_to_rotation_matrix,
    quat_from_rotation_matrix,
    quat_integrate,
    quat_angle_between,
    quat_normalize_into,
    quat_multiply_into,
    quat_conjugate_into,
    quat_rotate_floats,
    quat_rotate_into,
    quat_from_axis_angle_into,
    quat_to_rotation_matrix_into,
    quat_from_rotation_matrix_into,
    quat_integrate_into,
)
from repro.mathutils.rotations import (
    skew,
    wrap_angle,
)
from repro.mathutils.numerics import clamp, clamp_norm, clip_float

__all__ = [
    "quat_identity",
    "quat_normalize",
    "quat_multiply",
    "quat_conjugate",
    "quat_inverse",
    "quat_rotate",
    "quat_rotate_inverse",
    "quat_from_axis_angle",
    "quat_from_euler",
    "quat_to_euler",
    "quat_to_rotation_matrix",
    "quat_from_rotation_matrix",
    "quat_integrate",
    "quat_angle_between",
    "quat_normalize_into",
    "quat_multiply_into",
    "quat_conjugate_into",
    "quat_rotate_floats",
    "quat_rotate_into",
    "quat_from_axis_angle_into",
    "quat_to_rotation_matrix_into",
    "quat_from_rotation_matrix_into",
    "quat_integrate_into",
    "skew",
    "wrap_angle",
    "clamp",
    "clamp_norm",
    "clip_float",
]
