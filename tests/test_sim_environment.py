"""Unit tests for the environment and wind models."""

import numpy as np
import pytest

from repro.sim import GRAVITY_M_S2, QuadrotorPhysics, WindModel


def test_gravity_vector_points_down():
    # NED is down-positive, so a vehicle resting level on the ground
    # reads -g along body z.
    assert GRAVITY_M_S2 == 9.80665
    assert np.array_equal(QuadrotorPhysics().specific_force_body, [0.0, 0.0, -9.80665])


def test_wind_zero_sigma_is_constant():
    wind = WindModel(mean_wind_ned=np.array([1.0, 2.0, 0.0]), gust_sigma_m_s=0.0)
    for _ in range(100):
        out = wind.step(0.01)
    assert np.allclose(out, [1.0, 2.0, 0.0])


def test_wind_gusts_are_bounded_and_stationary():
    wind = WindModel(gust_sigma_m_s=0.5, gust_tau_s=2.0, seed=42)
    # step() returns a reused buffer; copy each sample before stacking.
    samples = np.array([wind.step(0.02).copy() for _ in range(20000)])
    # Stationary std close to sigma; mean close to zero.
    assert abs(samples.mean()) < 0.1
    std = samples.std()
    assert 0.3 < std < 0.7


def test_wind_deterministic_for_seed():
    w1 = WindModel(gust_sigma_m_s=0.5, seed=7)
    w2 = WindModel(gust_sigma_m_s=0.5, seed=7)
    for _ in range(50):
        a = w1.step(0.01)
        b = w2.step(0.01)
    assert np.allclose(a, b)


def test_wind_differs_across_seeds():
    w1 = WindModel(gust_sigma_m_s=0.5, seed=1)
    w2 = WindModel(gust_sigma_m_s=0.5, seed=2)
    for _ in range(50):
        a = w1.step(0.01)
        b = w2.step(0.01)
    assert not np.allclose(a, b)


def test_wind_validation():
    with pytest.raises(ValueError):
        WindModel(gust_sigma_m_s=-0.1)
    with pytest.raises(ValueError):
        WindModel(gust_tau_s=0.0)


def test_current_wind_matches_last_step():
    wind = WindModel(gust_sigma_m_s=0.3, seed=3)
    out = wind.step(0.01)
    assert np.allclose(wind.current_wind_ned, out)
