"""Quaternion attitude controller producing body-rate setpoints.

PX4's ``mc_att_control``: a proportional law on the quaternion
attitude error with reduced-attitude priority (tilt corrected at full
gain, yaw at reduced gain) and rate-setpoint limiting.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mathutils import quat_conjugate_into, quat_multiply_into, quat_normalize_into


#: Attitude P gain, the yaw share of it, and the rate envelope.
ATTITUDE_P = 6.0
YAW_WEIGHT = 0.4
MAX_RATE_RAD_S = math.radians(120.0)
MAX_YAW_RATE_RAD_S = math.radians(45.0)


class AttitudeController:
    """Maps (q_estimate, q_setpoint) to a body-rate setpoint."""

    def __init__(self) -> None:
        # Hot-loop work buffers; `rate_setpoint` returns `_rate_sp`
        # without copying (valid until the next call).
        self._qc = np.zeros(4)
        self._qe = np.zeros(4)
        self._rate_sp = np.zeros(3)

    def rate_setpoint(
        self,
        q_estimate: np.ndarray,
        q_setpoint: np.ndarray,
        confidence: float = 1.0,
    ) -> np.ndarray:
        """Proportional quaternion error -> body rate setpoint (rad/s).

        ``confidence`` in (0, 1] derates both the gain and the rate
        envelope. The vehicle system feeds the estimator's attitude
        confidence here: when the attitude is only coarsely known (e.g.
        the gyro stream has flatlined and the attitude is being carried
        by GPS-velocity corrections), commanding full-authority
        corrections onto a stale estimate rings the airframe apart —
        flying gently is what keeps a degraded vehicle alive.
        """
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {confidence}")
        q_err = self._qe
        quat_conjugate_into(q_estimate, self._qc)
        quat_multiply_into(self._qc, q_setpoint, q_err)
        quat_normalize_into(q_err, q_err)
        w, x, y, z = q_err.tolist()
        if w < 0.0:
            x, y, z = -x, -y, -z  # take the short way around

        # Small-angle: rotation vector ~ 2 * vector part.
        gain = 2.0 * ATTITUDE_P * confidence
        max_rate = MAX_RATE_RAD_S * confidence
        max_yaw = MAX_YAW_RATE_RAD_S * confidence
        rate_sp = self._rate_sp
        rate_sp[:] = (
            _clamp(x * gain, max_rate),
            _clamp(y * gain, max_rate),
            _clamp(z * gain * YAW_WEIGHT, max_yaw),
        )
        return rate_sp


def _clamp(value: float, limit: float) -> float:
    return min(max(value, -limit), limit)
