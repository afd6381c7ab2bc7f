"""Unit tests for the PX4 failure-detection defaults."""

import math

import pytest

from repro import SystemConfig
from repro.flightstack import FailsafeEngine
from repro.flightstack.params import FD_GYRO_RATE_THRESHOLD_RAD_S, FS_ISOLATION_TIME_S


def test_paper_defaults():
    # The paper quotes PX4's 60 deg/s default gyro threshold and a
    # minimum 1900 ms isolation time before failsafe; the vehicle's
    # knob surface and the failsafe engine both default to them.
    assert math.isclose(FD_GYRO_RATE_THRESHOLD_RAD_S, math.radians(60.0))
    assert FS_ISOLATION_TIME_S == pytest.approx(1.9)
    config = SystemConfig()
    engine = FailsafeEngine()
    for holder in (config, engine):
        assert holder.fd_gyro_rate_threshold_rad_s == FD_GYRO_RATE_THRESHOLD_RAD_S
        assert holder.fs_isolation_time_s == FS_ISOLATION_TIME_S
