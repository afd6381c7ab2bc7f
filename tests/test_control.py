"""Unit tests for the control cascade: PID, position, attitude, rate, mixer."""

import math

import numpy as np
import pytest

from repro.control import (
    AttitudeController,
    Mixer,
    Pid,
    PidParams,
    PositionController,
    RateController,
)
from repro.control import attitude, position
from repro.mathutils import quat_from_euler, quat_identity, quat_to_euler


# ---------------------------------------------------------------------- PID


def test_pid_proportional_only():
    pid = Pid(PidParams(kp=2.0), dim=1)
    out = pid.update([1.5], [0.0], 0.01)
    assert np.isclose(out[0], 3.0)


def test_pid_integral_accumulates():
    pid = Pid(PidParams(kp=0.0, ki=1.0), dim=1)
    for _ in range(100):
        out = pid.update([1.0], [0.0], 0.01)
    assert np.isclose(out[0], 1.0, atol=0.02)


def test_pid_integral_limit():
    pid = Pid(PidParams(kp=0.0, ki=1.0, integral_limit=0.2), dim=1)
    for _ in range(1000):
        out = pid.update([1.0], [0.0], 0.01)
    assert out[0] <= 0.2 + 1e-9


def test_pid_output_limit():
    pid = Pid(PidParams(kp=100.0, output_limit=1.0), dim=1)
    out = pid.update([5.0], [0.0], 0.01)
    assert out[0] == 1.0


def test_pid_derivative_on_measurement_no_setpoint_kick():
    pid = Pid(PidParams(kp=0.0, kd=1.0), dim=1)
    pid.update([0.0], [0.0], 0.01)
    # Setpoint step with constant measurement: derivative stays zero.
    out = pid.update([10.0], [0.0], 0.01)
    assert abs(out[0]) < 1e-9


def test_pid_derivative_opposes_measurement_motion():
    pid = Pid(PidParams(kp=0.0, kd=1.0, derivative_filter_hz=1000.0), dim=1)
    pid.update([0.0], [0.0], 0.01)
    out = pid.update([0.0], [1.0], 0.01)
    assert out[0] < 0.0  # measurement rising -> negative derivative action


def test_pid_reset_clears_state():
    pid = Pid(PidParams(kp=1.0, ki=1.0, kd=1.0), dim=2)
    pid.update([1.0, 1.0], [1.0, 1.0], 0.01)
    pid.reset()
    assert np.allclose(pid.integral, 0.0)


# ------------------------------------------------------------ Position loop


def test_velocity_setpoint_towards_target():
    ctrl = PositionController()
    vel = ctrl.velocity_setpoint(np.array([10.0, 0.0, 0.0]), np.zeros(3))
    assert vel[0] > 0.0
    assert abs(vel[1]) < 1e-9


def test_velocity_setpoint_respects_cruise_limit():
    ctrl = PositionController()
    vel = ctrl.velocity_setpoint(
        np.array([1000.0, 0.0, 0.0]), np.zeros(3), cruise_speed_m_s=3.0
    )
    assert np.linalg.norm(vel[:2]) <= 3.0 + 1e-9


def test_velocity_setpoint_vertical_limits():
    ctrl = PositionController()
    up = ctrl.velocity_setpoint(np.array([0.0, 0.0, -100.0]), np.zeros(3))
    down = ctrl.velocity_setpoint(np.array([0.0, 0.0, 100.0]), np.zeros(3))
    assert up[2] >= -position.MAX_SPEED_UP_M_S - 1e-9
    assert down[2] <= position.MAX_SPEED_DOWN_M_S + 1e-9


def test_hover_acceleration_gives_level_attitude_and_hover_thrust():
    ctrl = PositionController(mass_kg=1.5, max_total_thrust_n=32.0)
    collective, q_sp = ctrl.thrust_and_attitude(np.zeros(3), yaw_sp_rad=0.0)
    roll, pitch, yaw = quat_to_euler(q_sp)
    assert abs(roll) < 1e-6 and abs(pitch) < 1e-6
    assert math.isclose(collective, 1.5 * 9.80665 / 32.0, rel_tol=1e-6)


def test_forward_acceleration_pitches_nose_down():
    ctrl = PositionController()
    _, q_sp = ctrl.thrust_and_attitude(np.array([3.0, 0.0, 0.0]), yaw_sp_rad=0.0)
    _, pitch, _ = quat_to_euler(q_sp)
    assert pitch < -0.05  # FRD: nose-down pitch accelerates forward


def test_tilt_limited():
    ctrl = PositionController()
    _, q_sp = ctrl.thrust_and_attitude(np.array([100.0, 0.0, 0.0]), yaw_sp_rad=0.0)
    roll, pitch, _ = quat_to_euler(q_sp)
    tilt = math.sqrt(roll * roll + pitch * pitch)
    assert tilt <= position.MAX_TILT_RAD + 0.02


def test_collective_clamped():
    ctrl = PositionController()
    collective, _ = ctrl.thrust_and_attitude(np.array([0.0, 0.0, -1000.0]), 0.0)
    assert collective <= position.MAX_THRUST
    collective, _ = ctrl.thrust_and_attitude(np.array([0.0, 0.0, 1000.0]), 0.0)
    assert collective >= position.MIN_THRUST


def test_yaw_setpoint_carried_into_attitude():
    ctrl = PositionController()
    _, q_sp = ctrl.thrust_and_attitude(np.zeros(3), yaw_sp_rad=1.0)
    _, _, yaw = quat_to_euler(q_sp)
    assert math.isclose(yaw, 1.0, abs_tol=1e-6)


# ------------------------------------------------------------ Attitude loop


def test_attitude_no_error_no_rate():
    ctrl = AttitudeController()
    rate = ctrl.rate_setpoint(quat_identity(), quat_identity())
    assert np.allclose(rate, 0.0)


def test_attitude_roll_error_commands_roll_rate():
    ctrl = AttitudeController()
    q_sp = quat_from_euler(0.3, 0.0, 0.0)
    rate = ctrl.rate_setpoint(quat_identity(), q_sp)
    assert rate[0] > 0.0
    assert abs(rate[1]) < 1e-6


def test_attitude_rate_limits():
    ctrl = AttitudeController()
    q_sp = quat_from_euler(math.pi * 0.9, 0.0, 0.0)
    rate = ctrl.rate_setpoint(quat_identity(), q_sp)
    assert abs(rate[0]) <= attitude.MAX_RATE_RAD_S + 1e-9


def test_attitude_confidence_derates_gain():
    ctrl = AttitudeController()
    q_sp = quat_from_euler(0.2, 0.0, 0.0)
    # rate_setpoint returns a reused work buffer; copy to compare calls.
    full = ctrl.rate_setpoint(quat_identity(), q_sp, confidence=1.0).copy()
    derated = ctrl.rate_setpoint(quat_identity(), q_sp, confidence=0.5)
    assert abs(derated[0]) < abs(full[0])


def test_attitude_invalid_confidence_rejected():
    ctrl = AttitudeController()
    with pytest.raises(ValueError):
        ctrl.rate_setpoint(quat_identity(), quat_identity(), confidence=0.0)
    with pytest.raises(ValueError):
        ctrl.rate_setpoint(quat_identity(), quat_identity(), confidence=1.5)


def test_attitude_takes_short_way_around():
    ctrl = AttitudeController()
    q_sp = quat_from_euler(0.1, 0.0, 0.0)
    rate_pos = ctrl.rate_setpoint(quat_identity(), q_sp)
    rate_neg = ctrl.rate_setpoint(quat_identity(), -q_sp)  # same rotation
    assert np.allclose(rate_pos, rate_neg, atol=1e-9)


# ---------------------------------------------------------------- Rate loop


def test_rate_controller_opposes_rate_error():
    ctrl = RateController()
    torque = ctrl.torque_command(np.array([1.0, 0.0, 0.0]), np.zeros(3), 0.01)
    assert torque[0] > 0.0
    torque = ctrl.torque_command(np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.01)
    assert torque[0] < 0.0


def test_rate_controller_output_limited():
    ctrl = RateController()
    torque = ctrl.torque_command(np.array([100.0, 100.0, 100.0]), np.zeros(3), 0.01)
    assert np.all(np.abs(torque[:2]) <= 1.0 + 1e-9)
    assert abs(torque[2]) <= 0.4 + 1e-9


def test_rate_controller_reset():
    ctrl = RateController()
    for _ in range(100):
        ctrl.torque_command(np.ones(3), np.zeros(3), 0.01)
    ctrl.reset()
    out = ctrl.torque_command(np.zeros(3), np.zeros(3), 0.01)
    assert np.allclose(out, 0.0, atol=1e-9)


# -------------------------------------------------------------------- Mixer


def test_mixer_pure_collective_equal_commands():
    mixer = Mixer()
    cmds = mixer.mix(0.49, np.zeros(3))
    assert np.allclose(cmds, np.sqrt(0.49))


def test_mixer_roll_command_differential():
    mixer = Mixer()
    cmds = mixer.mix(0.5, np.array([0.5, 0.0, 0.0]))
    # Positive roll: left motors (1: back-left, 2: front-left) up,
    # right motors (0: front-right, 3: back-right) down.
    assert cmds[1] > cmds[0]
    assert cmds[2] > cmds[3]


def test_mixer_produces_commanded_total_thrust():
    mixer = Mixer()
    collective = 0.4
    cmds = mixer.mix(collective, np.zeros(3))
    # Quadratic rotor map: sum of command^2 * Tmax == collective * 4 * Tmax.
    assert math.isclose(float(np.sum(cmds**2)), 4.0 * collective, rel_tol=1e-9)


def test_mixer_desaturation_preserves_torque_sign():
    mixer = Mixer()
    cmds = mixer.mix(0.95, np.array([1.0, 0.0, 0.0]))
    assert np.all(cmds <= 1.0)
    assert cmds[1] > cmds[0]


def test_mixer_commands_in_unit_range():
    mixer = Mixer()
    for collective in (0.0, 0.3, 0.7, 1.0):
        cmds = mixer.mix(collective, np.array([1.0, -1.0, 1.0]))
        assert np.all(cmds >= 0.0) and np.all(cmds <= 1.0)
