"""True rigid-body state of a simulated vehicle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.mathutils import quat_identity


def _zeros3() -> np.ndarray:
    return np.zeros(3)


@dataclass(slots=True)
class RigidBodyState:
    """Ground-truth kinematic state in the NED world frame.

    Attributes:
        position_ned: metres, down positive (``-position_ned[2]`` is
            altitude above the world origin).
        velocity_ned: metres/second in the world frame.
        quaternion: body-to-world Hamilton quaternion ``[w, x, y, z]``.
        angular_rate_body: body-frame rates (rad/s, FRD axes).
    """

    position_ned: np.ndarray = field(default_factory=_zeros3)
    velocity_ned: np.ndarray = field(default_factory=_zeros3)
    quaternion: np.ndarray = field(default_factory=quat_identity)
    angular_rate_body: np.ndarray = field(default_factory=_zeros3)

    @property
    def altitude_m(self) -> float:
        """Altitude above the world origin, positive up."""
        return -float(self.position_ned[2])

    @property
    def speed_m_s(self) -> float:
        """Ground speed magnitude (3-D)."""
        v = self.velocity_ned
        return math.sqrt(float(v.dot(v)))

    @property
    def tilt_rad(self) -> float:
        """Angle between the body z axis and the world down axis.

        Zero when level; pi when fully inverted. This is the quantity the
        failsafe's attitude-failure detector monitors.
        """
        # Body down axis expressed in world frame is the third column of
        # the rotation matrix; its z component is 1 - 2(x^2 + y^2).
        w, x, y, z = self.quaternion
        cos_tilt = 1.0 - 2.0 * (x * x + y * y)
        cos_tilt = min(1.0, max(-1.0, cos_tilt))
        return float(np.arccos(cos_tilt))

    def copy(self) -> "RigidBodyState":
        """Deep copy (arrays are duplicated)."""
        return RigidBodyState(
            position_ned=self.position_ned.copy(),
            velocity_ned=self.velocity_ned.copy(),
            quaternion=self.quaternion.copy(),
            angular_rate_body=self.angular_rate_body.copy(),
        )
