"""Body-rate PID controller — the innermost loop.

Crucially, this loop's measurement input is the **raw gyroscope
signal** (after the fault injector), not the EKF rate estimate. This
matches PX4's ``mc_rate_control`` and is the direct path by which
gyro fault injections destabilise the vehicle in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.control.pid import Pid, PidParams


#: Per-axis rate-loop gains: roll and pitch share one set, yaw has its own.
ROLL_PITCH_PID = PidParams(kp=0.16, ki=0.2, kd=0.004, output_limit=1.0, integral_limit=0.3)
YAW_PID = PidParams(kp=0.18, ki=0.1, kd=0.0, output_limit=0.4, integral_limit=0.2)


class RateController:
    """PID on body rates producing normalised torque commands in [-1, 1]."""

    def __init__(self) -> None:
        self._rp_pid = Pid(ROLL_PITCH_PID, dim=2)
        self._yaw_pid = Pid(YAW_PID, dim=1)
        # `torque_command` returns `_torque` without copying (valid until
        # the next call).
        self._torque = np.zeros(3)

    def reset(self) -> None:
        """Clear loop memory (call on arming/mode transitions)."""
        self._rp_pid.reset()
        self._yaw_pid.reset()

    def torque_command(
        self, rate_sp: np.ndarray, gyro_rate: np.ndarray, dt: float
    ) -> np.ndarray:
        """Return normalised [roll, pitch, yaw] torque commands."""
        sp_roll, sp_pitch, sp_yaw = rate_sp.tolist()
        roll, pitch, yaw = gyro_rate.tolist()
        rp_cmd = self._rp_pid.update(
            [sp_roll - roll, sp_pitch - pitch], [roll, pitch], dt
        )
        yaw_cmd = self._yaw_pid.update([sp_yaw - yaw], [yaw], dt)
        torque = self._torque
        torque[:] = (rp_cmd[0], rp_cmd[1], yaw_cmd[0])
        return torque
