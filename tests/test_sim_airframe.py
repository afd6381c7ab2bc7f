"""Unit tests for the airframe force/torque map."""

import numpy as np
import pytest

from repro.sim import Environment, QuadrotorAirframe, WindModel
from repro.mathutils import quat_identity, quat_from_euler


@pytest.fixture
def airframe():
    return QuadrotorAirframe()


@pytest.fixture
def still_env():
    return Environment(wind=WindModel(gust_sigma_m_s=0.0))


def forces(airframe, env, thrusts, quat=None, vel=None, rates=None):
    wrench = airframe.forces_and_torques(
        np.asarray(thrusts, dtype=float),
        (quat if quat is not None else quat_identity()).tolist(),
        (vel if vel is not None else np.zeros(3)).tolist(),
        (rates if rates is not None else np.zeros(3)).tolist(),
        env.wind.current_wind_ned.tolist(),
    )
    return np.array(wrench[:3]), np.array(wrench[3:])


def test_zero_thrust_force_is_weight(airframe, still_env):
    force, torque = forces(airframe, still_env, [0.0] * 4)
    assert np.allclose(force, [0, 0, airframe.mass_kg * 9.80665])
    assert np.allclose(torque, 0.0)


def test_equal_thrust_no_roll_pitch_torque(airframe, still_env):
    _, torque = forces(airframe, still_env, [2.0] * 4)
    assert abs(torque[0]) < 1e-12
    assert abs(torque[1]) < 1e-12


def test_equal_thrust_cancels_yaw(airframe, still_env):
    _, torque = forces(airframe, still_env, [2.0] * 4)
    # Two CCW + two CW rotors at equal thrust: reaction torques cancel.
    assert abs(torque[2]) < 1e-12


def test_right_side_thrust_rolls_left(airframe, still_env):
    # Motors 0 (front-right) and 3 (back-right) sit at y > 0.
    _, torque = forces(airframe, still_env, [3.0, 1.0, 1.0, 3.0])
    assert torque[0] < 0.0  # negative roll torque (right side up)


def test_front_thrust_pitches_down(airframe, still_env):
    # Motors 0 and 2 are the front pair (x > 0): more front thrust
    # produces a positive pitch torque (nose up) about +y.
    _, torque = forces(airframe, still_env, [3.0, 1.0, 3.0, 1.0])
    assert torque[1] > 0.0


def test_ccw_pair_produces_net_yaw(airframe, still_env):
    # Motors 0 and 1 are the CCW pair: spinning them harder yields a
    # positive yaw reaction.
    _, torque = forces(airframe, still_env, [3.0, 3.0, 1.0, 1.0])
    assert torque[2] > 0.0


def test_thrust_rotates_with_attitude(airframe, still_env):
    quat = quat_from_euler(0.0, 0.3, 0.0)  # nose up
    force, _ = forces(airframe, still_env, [2.0] * 4, quat=quat)
    # Tilted thrust has a horizontal (negative-north) component.
    assert force[0] < -0.5


def test_drag_opposes_velocity(airframe, still_env):
    vel = np.array([5.0, 0.0, 0.0])
    force, _ = forces(airframe, still_env, [0.0] * 4, vel=vel)
    assert force[0] < 0.0


def test_drag_relative_to_wind(airframe):
    env = Environment(wind=WindModel(mean_wind_ned=np.array([5.0, 0.0, 0.0]),
                                     gust_sigma_m_s=0.0))
    env.wind.step(0.01)
    # Hovering in a 5 m/s tailwind: drag pushes the vehicle along.
    force, _ = forces(airframe, env, [0.0] * 4)
    assert force[0] > 0.0


def test_angular_damping_opposes_rates(airframe, still_env):
    rates = np.array([3.0, 0.0, 0.0])
    _, torque = forces(airframe, still_env, [0.0] * 4, rates=rates)
    assert torque[0] < 0.0
