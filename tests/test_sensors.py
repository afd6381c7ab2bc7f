"""Unit tests for the sensor models (IMU, GPS, baro, mag)."""

import math

import numpy as np
import pytest

from repro.mathutils import quat_from_euler
from repro.sensors import Barometer, GpsModel, ImuStack, Magnetometer
from repro.sensors.gps import HORIZONTAL_NOISE_M
from repro.sensors.imu import ACCEL_RANGE_M_S2, GYRO_NOISE_DENSITY, GYRO_RANGE_RAD_S


# ---------------------------------------------------------------------- IMU


def test_imu_sample_close_to_truth():
    imu = ImuStack([1])
    truth_f = np.array([0.1, -0.2, -9.8])
    truth_w = np.array([0.01, 0.02, -0.01])
    sample = imu.sample(0.0, truth_f, truth_w, dt=0.01)[0]
    assert np.allclose(sample.accel, truth_f, atol=0.5)
    assert np.allclose(sample.gyro, truth_w, atol=0.05)
    assert sample.time_s == 0.0


def test_imu_saturates_at_range():
    imu = ImuStack([1])
    huge = np.full(3, 1e6)
    sample = imu.sample(0.0, huge, huge, dt=0.01)[0]
    assert np.all(sample.accel == ACCEL_RANGE_M_S2)
    assert np.all(sample.gyro == GYRO_RANGE_RAD_S)


def test_imu_ranges_match_datasheet_defaults():
    assert math.isclose(ACCEL_RANGE_M_S2, 16.0 * 9.80665, rel_tol=1e-9)
    assert math.isclose(GYRO_RANGE_RAD_S, math.radians(2000.0), rel_tol=1e-9)


def test_imu_noise_statistics():
    imu = ImuStack([5])
    truth = np.zeros(3)
    samples = np.array(
        [imu.sample(i * 0.01, truth, truth, dt=0.01)[0].gyro for i in range(5000)]
    )
    # Std close to the noise density (bias adds a small offset).
    assert abs(samples.std() - GYRO_NOISE_DENSITY) < 0.002


def test_imu_deterministic_per_seed():
    a = ImuStack([9]).sample(0.0, np.zeros(3), np.zeros(3), dt=0.01)[0]
    b = ImuStack([9]).sample(0.0, np.zeros(3), np.zeros(3), dt=0.01)[0]
    assert np.allclose(a.accel, b.accel)
    assert np.allclose(a.gyro, b.gyro)


def test_imu_sample_copy_independent():
    imu = ImuStack([1])
    s = imu.sample(0.0, np.zeros(3), np.zeros(3), dt=0.01)[0]
    c = s.copy()
    c.accel[0] = 99.0
    assert s.accel[0] != 99.0


# ---------------------------------------------------------------------- GPS


def test_gps_rate_limiting():
    gps = GpsModel(seed=2)
    fixes = 0
    for i in range(1000):  # 10 s at 100 Hz
        if gps.maybe_sample(i * 0.01, np.zeros(3), np.zeros(3)) is not None:
            fixes += 1
    assert 48 <= fixes <= 52


def test_gps_noise_close_to_spec():
    gps = GpsModel(seed=3)
    errors = []
    for i in range(10000):  # 100 s at 100 Hz: 500 fixes
        fix = gps.maybe_sample(i * 0.01, np.zeros(3), np.zeros(3))
        if fix is not None:
            errors.append(fix.position_ned[0])
    std = np.std(errors)
    assert abs(std - HORIZONTAL_NOISE_M) < 0.1


# ---------------------------------------------------------------------- Baro


def test_baro_rate_and_noise():
    baro = Barometer(seed=4)
    readings = []
    for i in range(2000):
        alt = baro.maybe_sample(i * 0.01, 15.0)
        if alt is not None:
            readings.append(alt)
    assert len(readings) == pytest.approx(400, abs=5)
    assert abs(np.mean(readings) - 15.0) < 0.5


# ---------------------------------------------------------------------- Mag


def test_mag_measures_yaw():
    mag = Magnetometer(seed=5)
    q = quat_from_euler(0.0, 0.0, 1.2)
    yaw = mag.maybe_sample(0.0, q)
    assert yaw is not None
    assert abs(yaw - 1.2) < 0.1


def test_mag_output_wrapped():
    mag = Magnetometer(seed=6)
    q = quat_from_euler(0.0, 0.0, math.pi - 0.001)
    yaw = mag.maybe_sample(0.0, q)
    assert -math.pi < yaw <= math.pi
