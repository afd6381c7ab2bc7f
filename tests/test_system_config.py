"""``SystemConfig`` is the vehicle's one knob surface: each value a run
may set must reach the component that reads it."""

import math

import numpy as np

from repro import RedundancyConfig, SystemConfig, UavSystem, valencia_missions


def _plan():
    return valencia_missions(scale=0.1)[3]


def _confidences(config: SystemConfig) -> list[float]:
    """Confidence the attitude loop receives over a few steps of a
    vehicle whose attitude sigma is inflated past the schedule's knee."""
    system = UavSystem(_plan(), config=config)
    seen: list[float] = []
    rate_setpoint = system.attitude_controller.rate_setpoint

    def recording(q_estimate, q_setpoint, confidence=1.0):
        seen.append(confidence)
        return rate_setpoint(q_estimate, q_setpoint, confidence=confidence)

    system.attitude_controller.rate_setpoint = recording
    system.start_run()
    for _ in range(3):
        system.ekf.covariance[0, 0] = 1.0
        system.step()
    return seen


def test_every_knob_reaches_its_reader():
    config = SystemConfig(
        seed=5,
        risk_factor=1.7,
        confidence_scheduling=False,
        fusion_reset=False,
        fd_gyro_rate_threshold_rad_s=math.radians(90.0),
        fs_isolation_time_s=0.7,
        redundancy=RedundancyConfig(enabled=True, num_members=4),
    )
    system = UavSystem(_plan(), config=config)
    assert system.failsafe.fd_gyro_rate_threshold_rad_s == math.radians(90.0)
    assert system.failsafe.fs_isolation_time_s == 0.7
    assert system.ekf.fusion_reset is False
    assert system.bubble_monitor.outer_bubble.risk_factor == 1.7
    assert system.imu_bank.num_members == 4
    assert system.redundancy.enabled

    # The seed reaches the sensors: another seed, another IMU stream.
    default = UavSystem(_plan())
    assert not np.array_equal(system.imu_bank.imus.bias[0], default.imu_bank.imus.bias[0])

    # The attitude-gain schedule: derated by default, full gain when off.
    assert all(c < 1.0 for c in _confidences(SystemConfig()))
    assert _confidences(SystemConfig(confidence_scheduling=False)) == [1.0] * 3
