"""Property-based tests for control-stack invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import AttitudeController, Mixer, PositionController
from repro.control import attitude, position
from repro.mathutils import quat_from_euler, quat_to_euler

angles = st.floats(-math.pi, math.pi, allow_nan=False)
accels = st.floats(-50.0, 50.0, allow_nan=False)
torques = st.floats(-2.0, 2.0, allow_nan=False)
collectives = st.floats(0.0, 1.0, allow_nan=False)


@given(
    st.builds(lambda x, y, z: np.array([x, y, z]), accels, accels, accels),
    angles,
)
@settings(max_examples=200)
def test_thrust_and_attitude_always_valid(accel_sp, yaw_sp):
    """Any acceleration demand yields a unit quaternion, a collective in
    limits, and a tilt below the configured maximum."""
    ctrl = PositionController()
    collective, q_sp = ctrl.thrust_and_attitude(accel_sp, yaw_sp)
    assert position.MIN_THRUST <= collective <= position.MAX_THRUST
    assert math.isclose(float(q_sp @ q_sp), 1.0, rel_tol=1e-9)
    roll, pitch, _ = quat_to_euler(q_sp)
    # Tilt limit with a small numerical margin.
    tilt = math.acos(max(-1.0, min(1.0, math.cos(roll) * math.cos(pitch))))
    assert tilt <= position.MAX_TILT_RAD + 0.05


@given(angles, angles, angles, angles, angles, angles, st.floats(0.13, 1.0))
@settings(max_examples=200)
def test_rate_setpoint_bounded(r1, p1, y1, r2, p2, y2, confidence):
    ctrl = AttitudeController()
    q_est = quat_from_euler(r1, p1, y1)
    q_sp = quat_from_euler(r2, p2, y2)
    rate = ctrl.rate_setpoint(q_est, q_sp, confidence=confidence)
    assert np.all(np.isfinite(rate))
    assert abs(rate[0]) <= attitude.MAX_RATE_RAD_S * confidence + 1e-9
    assert abs(rate[1]) <= attitude.MAX_RATE_RAD_S * confidence + 1e-9
    assert abs(rate[2]) <= attitude.MAX_YAW_RATE_RAD_S * confidence + 1e-9


@given(collectives, st.builds(lambda a, b, c: np.array([a, b, c]), torques, torques, torques))
@settings(max_examples=200)
def test_mixer_outputs_always_valid_commands(collective, torque):
    mixer = Mixer()
    cmds = mixer.mix(collective, torque)
    assert cmds.shape == (4,)
    assert np.all(cmds >= 0.0)
    assert np.all(cmds <= 1.0)
    assert np.all(np.isfinite(cmds))


@given(collectives, st.builds(lambda a, b, c: np.array([a, b, c]), torques, torques, torques))
@settings(max_examples=200)
def test_mixer_torque_sign_preserved_under_saturation(collective, torque):
    """Desaturation shifts collective, never flips a torque direction."""
    mixer = Mixer()
    cmds = mixer.mix(collective, torque)
    fractions = cmds**2
    roll_produced = (fractions[1] + fractions[2]) - (fractions[0] + fractions[3])
    clipped = float(np.clip(torque[0], -1.0, 1.0))
    if abs(clipped) > 0.05 and 0.1 < collective < 0.9:
        assert roll_produced * clipped >= -1e-9
