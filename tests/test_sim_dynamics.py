"""Unit tests for rigid-body dynamics and ground contact."""

import math

import numpy as np
import pytest

from repro.mathutils import quat_from_euler
from repro.sim.motors import MAX_THRUST_N
from repro.sim import (
    Environment,
    QuadrotorAirframe,
    QuadrotorPhysics,
    RigidBodyState,
    WindModel,
)


def make_physics(**state_kwargs):
    env = Environment(wind=WindModel(gust_sigma_m_s=0.0))
    state = RigidBodyState(**state_kwargs)
    return QuadrotorPhysics(QuadrotorAirframe(), env, state)


def hover_command(physics):
    return np.full(4, physics.airframe.hover_thrust_fraction)


def test_free_fall_without_thrust():
    physics = make_physics(position_ned=np.array([0.0, 0.0, -100.0]))
    for _ in range(100):
        physics.step(np.zeros(4), dt=0.01)
    # After 1 s of free fall: v ~ g*t (slightly less due to drag).
    assert 8.0 < physics.state.velocity_ned[2] <= 9.81


def test_hover_holds_altitude():
    physics = make_physics(position_ned=np.array([0.0, 0.0, -50.0]))
    # Pre-spin motors to hover.
    cmd = hover_command(physics)
    for _ in range(500):
        physics.step(cmd, dt=0.01)
    assert abs(physics.state.altitude_m - 50.0) < 2.0
    assert abs(physics.state.velocity_ned[2]) < 0.5


def test_tilt_produces_horizontal_acceleration():
    physics = make_physics(
        position_ned=np.array([0.0, 0.0, -50.0]),
        quaternion=quat_from_euler(0.0, 0.2, 0.0),  # pitch up -> accelerate forward? (FRD: +pitch tilts nose up)
    )
    cmd = hover_command(physics)
    for _ in range(100):
        physics.step(cmd, dt=0.01)
    # Nose-up pitch tilts thrust backward: negative north acceleration.
    assert physics.state.velocity_ned[0] < -0.1


def test_asymmetric_thrust_rolls():
    physics = make_physics(position_ned=np.array([0.0, 0.0, -50.0]))
    base = physics.airframe.hover_thrust_fraction
    # Motors 1 (back-left) and 2 (front-left) are on the left (y < 0).
    cmd = np.array([base + 0.1, base - 0.1, base - 0.1, base + 0.1])
    physics.step(cmd, dt=0.2)
    physics.step(cmd, dt=0.2)
    # More thrust on the right side -> roll left (negative roll rate).
    assert physics.state.angular_rate_body[0] < 0.0


def test_ground_contact_records_impact():
    physics = make_physics(
        position_ned=np.array([0.0, 0.0, -5.0]),
        velocity_ned=np.array([0.0, 0.0, 4.0]),
    )
    for _ in range(200):
        physics.step(np.zeros(4), dt=0.01)
        if physics.last_contact:
            break
    assert physics.last_contact is not None
    assert physics.last_contact.impact_speed_m_s > 4.0
    assert physics.on_ground


def test_ground_clamps_position_and_velocity():
    physics = make_physics(
        position_ned=np.array([0.0, 0.0, -1.0]),
        velocity_ned=np.array([2.0, 0.0, 3.0]),
    )
    for _ in range(300):
        physics.step(np.zeros(4), dt=0.01)
    assert physics.state.position_ned[2] == 0.0
    assert abs(physics.state.velocity_ned[0]) < 0.05  # friction bled it off
    assert physics.state.velocity_ned[2] <= 0.0


def test_specific_force_at_rest_is_minus_gravity():
    physics = make_physics()
    physics.step(np.zeros(4), dt=0.01)
    # On the ground with no thrust, the body feels the ground reaction:
    # specific force ~ -g in body z (FRD: up is -z).
    assert physics.specific_force_body[2] < 0.0


def test_invalid_dt_rejected():
    physics = make_physics()
    with pytest.raises(ValueError):
        physics.step(np.zeros(4), dt=0.0)


def test_speed_clamped():
    physics = make_physics(
        position_ned=np.array([0.0, 0.0, -10000.0]),
        velocity_ned=np.array([0.0, 0.0, 100.0]),
    )
    physics.step(np.zeros(4), dt=0.01)
    assert physics.state.speed_m_s <= 60.0 + 1e-6


def test_state_tilt_property():
    level = RigidBodyState()
    assert level.tilt_rad < 1e-9
    tilted = RigidBodyState(quaternion=quat_from_euler(math.radians(30), 0.0, 0.0))
    assert math.isclose(math.degrees(tilted.tilt_rad), 30.0, rel_tol=1e-6)


def test_state_copy_is_deep():
    s = RigidBodyState()
    c = s.copy()
    c.position_ned[0] = 99.0
    assert s.position_ned[0] == 0.0


def test_airframe_params_validation():
    with pytest.raises(ValueError):
        QuadrotorAirframe(mass_kg=0.0)


def test_hover_thrust_fraction_balances_weight():
    frac = QuadrotorAirframe(mass_kg=1.5).hover_thrust_fraction
    total_thrust = 4.0 * MAX_THRUST_N * frac**2
    assert math.isclose(total_thrust, 1.5 * 9.80665, rel_tol=1e-9)
