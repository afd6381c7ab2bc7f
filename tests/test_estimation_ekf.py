"""Unit tests for the error-state EKF."""


import numpy as np
import pytest

from repro.estimation import Ekf
from repro.estimation.ekf import ACCEL_BIAS_LIMIT, GYRO_BIAS_LIMIT
from repro.mathutils import quat_to_euler
from repro.sensors.gps import GpsSample
from repro.sensors.imu import ImuSample


GRAVITY = 9.80665


def static_imu(t):
    """IMU sample of a vehicle at rest (specific force = -g in body z)."""
    return ImuSample(t, np.array([0.0, 0.0, -GRAVITY]), np.zeros(3))


def gps_fix(t, pos=(0.0, 0.0, 0.0), vel=(0.0, 0.0, 0.0)):
    return GpsSample(
        time_s=t,
        position_ned=np.array(pos, dtype=float),
        velocity_ned=np.array(vel, dtype=float),
        horizontal_accuracy_m=0.4,
        vertical_accuracy_m=0.8,
    )


def test_static_prediction_stays_put():
    ekf = Ekf()
    for i in range(500):
        ekf.predict(static_imu(i * 0.01), 0.01)
    assert np.linalg.norm(ekf.velocity_ned) < 0.01
    assert np.linalg.norm(ekf.position_ned) < 0.01


def test_covariance_grows_without_aiding():
    ekf = Ekf()
    p0 = ekf.covariance[6, 6]
    for i in range(200):
        ekf.predict(static_imu(i * 0.01), 0.01)
    assert ekf.covariance[6, 6] > p0


def test_gps_updates_bound_position_error():
    ekf = Ekf()
    # A slightly biased accel would drift the filter; GPS pins it down.
    for i in range(2000):
        t = i * 0.01
        imu = ImuSample(t, np.array([0.05, 0.0, -GRAVITY]), np.zeros(3))
        ekf.predict(imu, 0.01)
        if i % 20 == 0:
            ekf.update_gps(gps_fix(t))
    assert np.linalg.norm(ekf.position_ned) < 1.0
    assert np.linalg.norm(ekf.velocity_ned) < 0.5


def test_accel_z_bias_estimated():
    """Vertical accel bias is observable against GPS (horizontal bias is
    ambiguous with tilt without manoeuvres, so only z is asserted)."""
    ekf = Ekf()
    bias = np.array([0.0, 0.0, 0.3])
    rng = np.random.default_rng(0)
    for i in range(4000):
        t = i * 0.01
        accel = np.array([0.0, 0.0, -GRAVITY]) + bias + rng.normal(0, 0.02, 3)
        imu = ImuSample(t, accel, rng.normal(0, 0.002, 3))
        ekf.predict(imu, 0.01)
        if i % 20 == 0:
            ekf.update_gps(gps_fix(t))
    assert abs(ekf.accel_bias[2] - 0.3) < 0.12


def test_baro_corrects_altitude():
    ekf = Ekf()
    ekf.position_ned[2] = -5.0  # filter believes 5 m altitude...
    ekf.covariance[8, 8] = 25.0  # ...and knows its height is uncertain
    for _ in range(50):
        ekf.predict(static_imu(ekf.time_s + 0.01), 0.01)
        ekf.update_baro(0.0)  # baro says ground level
    assert abs(ekf.position_ned[2]) < 1.0


def test_baro_outlier_gated_when_confident():
    ekf = Ekf()
    for i in range(100):
        ekf.predict(static_imu(i * 0.01), 0.01)
        ekf.update_baro(0.0)
    ekf.update_baro(50.0)  # absurd jump
    assert abs(ekf.position_ned[2]) < 1.0


def test_mag_corrects_yaw():
    ekf = Ekf(initial_yaw_rad=0.0)
    for _ in range(200):
        ekf.predict(static_imu(ekf.time_s + 0.01), 0.01)
        ekf.update_mag_yaw(0.3)
    assert abs(quat_to_euler(ekf.quaternion)[2] - 0.3) < 0.05


def test_innovation_gating_rejects_outlier():
    ekf = Ekf()
    for i in range(100):
        ekf.predict(static_imu(i * 0.01), 0.01)
        if i % 20 == 0:
            ekf.update_gps(gps_fix(i * 0.01))
    before = ekf.position_ned.copy()
    ekf.update_gps(gps_fix(1.0, pos=(500.0, 0.0, 0.0)))
    # Outlier rejected: position barely moves.
    assert np.linalg.norm(ekf.position_ned - before) < 1.0
    assert ekf.monitor.channels["gps_pos_0"].total_rejections >= 1


def test_fusion_timeout_reset_recovers_divergence():
    ekf = Ekf()
    ekf.velocity_ned[:] = [30.0, 0.0, 0.0]  # forcibly diverged
    for i in range(60):
        t = i * 0.01
        ekf.predict(static_imu(t), 0.01)
        if i % 4 == 0:  # 25 Hz GPS to exercise the streak quickly
            ekf.update_gps(gps_fix(t))
    assert np.linalg.norm(ekf.velocity_ned) < 2.0


def test_gyro_flatline_inflates_attitude_uncertainty():
    ekf = Ekf()
    sigma0 = ekf.attitude_std_rad
    frozen = np.zeros(3)
    for i in range(100):
        imu = ImuSample(i * 0.01, np.array([0.0, 0.0, -GRAVITY]), frozen)
        ekf.predict(imu, 0.01)
    assert ekf.attitude_std_rad > sigma0 * 2


def test_full_imu_flatline_latches_stale_flag():
    ekf = Ekf()
    frozen_f = np.array([0.0, 0.0, -GRAVITY])
    frozen_w = np.zeros(3)
    for i in range(60):
        ekf.predict(ImuSample(i * 0.01, frozen_f, frozen_w), 0.01)
    assert ekf.imu_stale_latched
    # Latched: stays set even after live data resumes.
    rng = np.random.default_rng(0)
    for i in range(60, 120):
        live = ImuSample(
            i * 0.01, frozen_f + rng.normal(0, 0.01, 3), rng.normal(0, 0.001, 3)
        )
        ekf.predict(live, 0.01)
    assert ekf.imu_stale_latched


def test_live_noise_never_latches_stale():
    ekf = Ekf()
    rng = np.random.default_rng(1)
    for i in range(200):
        imu = ImuSample(
            i * 0.01,
            np.array([0.0, 0.0, -GRAVITY]) + rng.normal(0, 0.05, 3),
            rng.normal(0, 0.003, 3),
        )
        ekf.predict(imu, 0.01)
    assert not ekf.imu_stale_latched


def test_gravity_tilt_aiding_levels_filter():
    ekf = Ekf()
    # Corrupt the attitude estimate by 15 degrees roll.
    from repro.mathutils import quat_from_euler, quat_multiply

    ekf.quaternion = quat_multiply(ekf.quaternion, quat_from_euler(0.26, 0.0, 0.0))
    for i in range(400):
        imu = static_imu(i * 0.01)
        ekf.predict(imu, 0.01)
        if i % 5 == 0:
            ekf.update_gravity_tilt(imu.accel, imu.gyro, dt=0.05)
    roll, pitch, _ = [abs(a) for a in np.array(quat_to_euler_tuple(ekf.quaternion))]
    assert roll < 0.05 and pitch < 0.05


def quat_to_euler_tuple(q):
    from repro.mathutils import quat_to_euler

    return quat_to_euler(q)


def test_gravity_aiding_skipped_when_dynamic():
    ekf = Ekf()
    q0 = ekf.quaternion.copy()
    # High measured rates: quasi-static check must block the update.
    ekf.update_gravity_tilt(np.array([2.0, 0.0, -GRAVITY]), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(ekf.quaternion, q0)


def test_bias_clamped_to_limits():
    ekf = Ekf()
    ekf._inject_error(np.concatenate([np.zeros(9), np.full(3, 10.0), np.full(3, -10.0)]))
    assert np.all(ekf.gyro_bias == GYRO_BIAS_LIMIT)
    assert np.all(ekf.accel_bias == -ACCEL_BIAS_LIMIT)


def test_predict_rejects_bad_dt():
    with pytest.raises(ValueError):
        Ekf().predict(static_imu(0.0), 0.0)


def test_attitude_confidence_bounds():
    ekf = Ekf()
    assert 0.12 <= Ekf.confidence_from_std(ekf.attitude_std_rad) <= 1.0
    ekf.covariance[0, 0] = 4.0
    confidence = Ekf.confidence_from_std(ekf.attitude_std_rad)
    assert confidence == pytest.approx(max(0.12, 0.06 / 2.0))


def test_infinite_gyro_rate_propagates_nan():
    """An infinite body rate leaves a NaN attitude instead of raising."""
    ekf = Ekf()
    imu = ImuSample(0.01, np.array([0.0, 0.0, -GRAVITY]), np.array([0.0, 0.0, np.inf]))
    with np.errstate(invalid="ignore"):
        ekf.predict(imu, 0.01)
    assert np.all(np.isnan(ekf.quaternion))
