"""Unit tests for the motor model."""

import numpy as np
import pytest

from repro.sim import MotorBank
from repro.sim.motors import MAX_THRUST_N


def test_bank_requires_positive_count():
    with pytest.raises(ValueError):
        MotorBank(count=0)


def test_commands_clamped_to_unit_range():
    bank = MotorBank()
    # dt is past the time constant, so the lag settles in one step.
    thrusts = bank.step(np.array([2.0, -1.0, 0.5, 1.0]), dt=0.1)
    max_t = MAX_THRUST_N
    assert np.isclose(thrusts[0], max_t)
    assert np.isclose(thrusts[1], 0.0)
    assert thrusts[2] < max_t


def test_wrong_command_count_rejected():
    bank = MotorBank(count=4)
    with pytest.raises(ValueError):
        bank.step(np.array([1.0, 1.0]), dt=0.01)


def test_first_order_lag_converges():
    bank = MotorBank()
    cmd = np.full(4, 0.7)
    for _ in range(200):
        thrusts = bank.step(cmd, dt=0.01)
    assert np.allclose(thrusts, MAX_THRUST_N * 0.7**2, rtol=1e-3)


def test_lag_means_no_instant_response():
    bank = MotorBank()
    thrusts = bank.step(np.full(4, 1.0), dt=0.01)
    assert np.all(thrusts < MAX_THRUST_N * 0.25)  # far from steady state after 10 ms


def test_quadratic_thrust_map():
    bank = MotorBank()
    for _ in range(1000):
        bank.step(np.full(4, 0.5), dt=0.01)
    assert np.allclose(bank.thrusts(), MAX_THRUST_N * 0.25, rtol=1e-6)


def test_reset_zeroes_output():
    bank = MotorBank()
    bank.step(np.full(4, 1.0), dt=0.1)
    bank.reset()
    assert np.allclose(bank.thrusts(), 0.0)
    assert np.allclose(bank.effective_commands, 0.0)
