"""A vector PID controller with anti-windup and derivative filtering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mathutils import clip_float


@dataclass(frozen=True)
class PidParams:
    """Gains and limits for a (possibly vector-valued) PID loop.

    ``output_limit`` and ``integral_limit`` bound each component
    symmetrically; ``derivative_filter_hz`` low-passes the derivative
    term so noisy (or fault-injected) measurements do not ring the loop.
    """

    kp: float
    ki: float = 0.0
    kd: float = 0.0
    output_limit: float = float("inf")
    integral_limit: float = float("inf")
    derivative_filter_hz: float = 30.0


class Pid:
    """PID on the error signal, derivative on the measurement.

    Derivative-on-measurement avoids derivative kick on setpoint steps,
    which a mission of discrete waypoints produces constantly.
    """

    def __init__(self, params: PidParams, dim: int = 3):
        self.params = params
        self.dim = dim
        # Loop memory as Python floats: `update` runs per component on
        # floats, which round exactly as numpy's elementwise ops do.
        self._integral = [0.0] * dim
        self._prev_measurement: list[float] | None = None
        self._deriv_filtered = [0.0] * dim
        self._no_deriv = [0.0] * dim

    def reset(self) -> None:
        """Clear integral and derivative memory."""
        self._integral = [0.0] * self.dim
        self._prev_measurement = None
        self._deriv_filtered = [0.0] * self.dim

    def update(self, errors: list[float], measured: list[float], dt: float) -> list[float]:
        """Advance the loop and return the actuation command.

        ``measured`` is kept as the next derivative reference, so the
        caller must not mutate it afterwards.
        """
        p = self.params
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")

        # Each line repeats the elementwise numpy original operation for
        # operation (same operands, same order), so outputs match bit for
        # bit; `clip_float` is np.minimum(np.maximum(x, lo), hi), NaN and
        # ties included.
        integral = self._integral
        if p.ki > 0.0:
            limit = p.integral_limit
            for i, e in enumerate(errors):
                integral[i] = clip_float(integral[i] + e * dt, -limit, limit)

        prev = self._prev_measurement
        if p.kd > 0.0 and prev is not None:
            alpha = min(1.0, 2.0 * np.pi * p.derivative_filter_hz * dt)
            deriv = self._deriv_filtered
            for i, m in enumerate(measured):
                raw = -(m - prev[i]) / dt
                deriv[i] = deriv[i] + (raw - deriv[i]) * alpha
        else:
            # The derivative term still multiplies zeros by kd (0 * inf
            # is NaN), as the array original did.
            deriv = self._no_deriv
        self._prev_measurement = measured

        limit = p.output_limit
        return [
            clip_float(e * p.kp + integral[i] * p.ki + deriv[i] * p.kd, -limit, limit)
            for i, e in enumerate(errors)
        ]

    @property
    def integral(self) -> np.ndarray:
        """Current integral state (copy)."""
        return np.array(self._integral)
