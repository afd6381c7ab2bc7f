"""Rotor/motor actuation model.

Each motor is commanded with a normalised setpoint in ``[0, 1]`` and
responds with first-order lag, producing thrust proportional to the
square of its effective command (a standard static rotor map). The yaw
reaction torque is proportional to thrust via the rotor drag ratio.
"""

from __future__ import annotations

import numpy as np

from repro.mathutils import clamp, clip_float


#: One rotor + ESC + propeller unit: thrust at full command (Newtons)
#: and the first-order response time constant (seconds).
MAX_THRUST_N = 8.0
TIME_CONSTANT_S = 0.04


class MotorBank:
    """The set of four motors with shared dynamics.

    Tracks each motor's lagged internal command and converts commands to
    per-motor thrust. Commands outside [0, 1] are clamped, mirroring ESC
    saturation.
    """

    def __init__(self, count: int = 4):
        if count < 1:
            raise ValueError("motor count must be >= 1")
        self.count = count
        self._effective = np.zeros(count)
        # `step` returns `self._thrust` without copying, so callers must
        # consume it before the next step.
        self._thrust = np.zeros(count)

    def reset(self) -> None:
        """Return all motors to zero output (disarmed)."""
        self._effective[:] = 0.0

    def step(self, commands: np.ndarray, dt: float) -> np.ndarray:
        """Advance motor lag and return per-motor thrust (Newtons).

        Args:
            commands: normalised motor setpoints, clamped to [0, 1].
            dt: integration step (seconds).
        """
        commands = np.asarray(commands, dtype=float)
        if commands.shape != (self.count,):
            raise ValueError(f"expected {self.count} motor commands, got {commands.shape}")
        alpha = clamp(dt / TIME_CONSTANT_S, 0.0, 1.0)
        max_thrust = MAX_THRUST_N
        # Float form of `effective += alpha * (clip(cmd, 0, 1) - effective)`
        # and `max_thrust * effective**2`, rounding as the numpy original.
        effective = self._effective
        thrust = self._thrust
        for i, (c, e) in enumerate(zip(commands.tolist(), effective.tolist())):
            e = e + (clip_float(c, 0.0, 1.0) - e) * alpha
            effective[i] = e
            thrust[i] = (e * e) * max_thrust
        return thrust

    @property
    def effective_commands(self) -> np.ndarray:
        """Current lagged commands (copy)."""
        return self._effective.copy()

    def thrusts(self) -> np.ndarray:
        """Thrust produced at the current lagged commands (no stepping)."""
        return MAX_THRUST_N * self._effective**2
