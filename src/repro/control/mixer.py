"""Control allocation: collective + torques to per-motor commands."""

from __future__ import annotations

import math

import numpy as np

from repro.mathutils import clip_float


#: Authority of each normalised torque axis in command units.
ROLL_PITCH_AUTHORITY = 0.30
YAW_AUTHORITY = 0.25


class Mixer:
    """Quad-X mixer with attitude-priority desaturation.

    The sign table matches :class:`repro.sim.airframe.QuadrotorAirframe`'s
    motor layout (front-right, back-left, front-left, back-right). When a
    command saturates, the collective is shifted to preserve the torque
    commands — the same priority PX4's desaturation applies, and the
    reason violently faulted vehicles lose altitude while fighting for
    attitude.
    """

    #: Per-motor signs for (roll, pitch, yaw) contributions.
    _SIGNS = np.array(
        [
            [-1.0, +1.0, +1.0],  # front-right, CCW
            [+1.0, -1.0, +1.0],  # back-left,  CCW
            [+1.0, +1.0, -1.0],  # front-left, CW
            [-1.0, -1.0, -1.0],  # back-right, CW
        ]
    )

    def __init__(self) -> None:
        # Hot-loop work buffers; `mix` returns `_fractions` without
        # copying (valid until the next call).
        self._tq = np.zeros(3)
        self._fractions = np.zeros(4)

    def mix(self, collective: float, torque_cmd: np.ndarray) -> np.ndarray:
        """Return 4 normalised motor commands in [0, 1].

        Args:
            collective: normalised total thrust demand in [0, 1],
                expressed as a *thrust fraction* of maximum total thrust.
            torque_cmd: normalised [roll, pitch, yaw] in [-1, 1].

        Allocation happens in thrust-fraction space; the final commands
        take the square root of each motor's thrust fraction because the
        rotor map is quadratic (thrust = T_max * command^2), so that the
        commanded collective is actually produced.
        """
        # Float kernels around the one BLAS call (the signs gemv), each
        # repeating its elementwise numpy original bit for bit.
        roll, pitch, yaw = torque_cmd.tolist()
        tq = self._tq
        tq[:] = (
            clip_float(roll, -1.0, 1.0) * ROLL_PITCH_AUTHORITY,
            clip_float(pitch, -1.0, 1.0) * ROLL_PITCH_AUTHORITY,
            clip_float(yaw, -1.0, 1.0) * YAW_AUTHORITY,
        )
        torque_part = self._fractions
        self._SIGNS.dot(tq, out=torque_part)
        parts = torque_part.tolist()

        # When the torque demand alone spans more than the [0, 1] command
        # range, no collective shift can fit it; scale it down uniformly
        # (preserving ratios and signs) so the final clip never zeroes a
        # motor and flips a small torque's direction.
        span = _max(parts) - _min(parts)
        if span > 1.0:
            parts = [f / span for f in parts]
        collective = float(collective)
        fractions = [f + collective for f in parts]

        # Desaturate by shifting collective; torque differences survive.
        overflow = _max(fractions) - 1.0
        if overflow > 0.0:
            fractions = [f - overflow for f in fractions]
        underflow = -_min(fractions)
        if underflow > 0.0:
            shift = min(underflow, max(0.0, 1.0 - _max(fractions)))
            fractions = [f + shift for f in fractions]
        torque_part[:] = [math.sqrt(clip_float(f, 0.0, 1.0)) for f in fractions]
        return torque_part


def _max(values: list[float]) -> float:
    """``ndarray.max`` up to the sign of a zero: NaN if any value is NaN."""
    top = values[0]
    for v in values:
        if v > top or v != v:
            top = v
    return top


def _min(values: list[float]) -> float:
    """``ndarray.min`` up to the sign of a zero: NaN if any value is NaN."""
    low = values[0]
    for v in values:
        if v < low or v != v:
            low = v
    return low
