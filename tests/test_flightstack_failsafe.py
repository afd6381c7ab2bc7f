"""Unit tests for the failure-detection / failsafe state machine."""

import math

import numpy as np

from repro.estimation.health import EstimatorHealth
from repro.flightstack import FailsafeEngine, FailsafeState, FailsafeTrigger
from repro.flightstack.params import FS_ISOLATION_TIME_S


HEALTHY = EstimatorHealth(False, False, False)
SICK = EstimatorHealth(True, False, False)

CALM = np.zeros(3)
SPINNING = np.array([2.0, 0.0, 0.0])  # ~115 deg/s, above the 60 deg/s default


def engine(**overrides):
    return FailsafeEngine(**overrides)


def run_condition(fs, duration_s, gyro, tilt=0.0, health=HEALTHY, start=0.0, dt=0.01):
    t = start
    while t < start + duration_s:
        fs.update(t, gyro, tilt, health, in_flight=True)
        t += dt
    return t


def test_nominal_stays_nominal():
    fs = engine()
    run_condition(fs, 5.0, CALM)
    assert fs.state == FailsafeState.NOMINAL
    assert not fs.engaged


def test_gyro_rate_trigger_engages_after_isolation():
    fs = engine()
    run_condition(fs, 3.5, SPINNING)
    assert fs.engaged
    assert fs.trigger == FailsafeTrigger.GYRO_RATE
    # Paper: failsafe takes a minimum of ~1900 ms (isolation) plus the
    # detection debounce before engaging.
    assert fs.engaged_time_s >= FS_ISOLATION_TIME_S


def test_short_blip_does_not_even_isolate():
    fs = engine()
    run_condition(fs, 0.3, SPINNING)  # below the 0.5 s debounce
    run_condition(fs, 1.0, CALM, start=0.3)
    assert fs.state == FailsafeState.NOMINAL


def test_condition_clearing_during_isolation_recovers():
    fs = engine()
    run_condition(fs, 0.8, SPINNING)  # enough to enter isolation
    assert fs.state == FailsafeState.ISOLATING
    run_condition(fs, 1.5, CALM, start=0.8)  # clears and stays clear
    assert fs.state == FailsafeState.NOMINAL
    assert not fs.engaged


def test_attitude_trigger():
    fs = engine()
    run_condition(fs, 3.5, CALM, tilt=math.radians(80.0))
    assert fs.engaged
    assert fs.trigger == FailsafeTrigger.ATTITUDE


def test_ekf_health_trigger():
    fs = engine()
    run_condition(fs, 3.5, CALM, health=SICK)
    assert fs.engaged
    assert fs.trigger == FailsafeTrigger.EKF_HEALTH


def test_not_in_flight_never_triggers():
    fs = engine()
    for i in range(500):
        fs.update(i * 0.01, SPINNING, math.radians(80.0), SICK, in_flight=False)
    assert fs.state == FailsafeState.NOMINAL


def test_engaged_is_terminal():
    fs = engine()
    run_condition(fs, 3.5, SPINNING)
    assert fs.engaged
    run_condition(fs, 2.0, CALM, start=3.5)
    assert fs.engaged  # no automatic disengage


def test_configurable_threshold():
    fs = engine(fd_gyro_rate_threshold_rad_s=math.radians(300.0))
    run_condition(fs, 3.5, SPINNING)  # 115 deg/s < 300 deg/s threshold
    assert not fs.engaged


def test_isolation_time_respected():
    fs = engine(fs_isolation_time_s=3.0)
    run_condition(fs, 3.0, SPINNING)
    assert not fs.engaged  # 0.5 debounce + 3.0 isolation not yet elapsed
    run_condition(fs, 1.0, SPINNING, start=3.0)
    assert fs.engaged


def test_status_snapshot():
    fs = engine()
    status = fs.status()
    assert status.state == FailsafeState.NOMINAL
    assert status.trigger == FailsafeTrigger.NONE
    assert status.engaged_time_s is None
