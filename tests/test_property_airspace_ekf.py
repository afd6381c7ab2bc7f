"""Property tests: EKF numerical invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation import Ekf
from repro.sensors.gps import GpsSample
from repro.sensors.imu import ImuSample

accel_vals = st.floats(-150.0, 150.0, allow_nan=False)
gyro_vals = st.floats(-30.0, 30.0, allow_nan=False)


@given(
    st.lists(
        st.tuples(
            st.builds(lambda x, y, z: np.array([x, y, z]), accel_vals, accel_vals, accel_vals),
            st.builds(lambda x, y, z: np.array([x, y, z]), gyro_vals, gyro_vals, gyro_vals),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_ekf_stays_finite_under_arbitrary_imu(stream):
    """No IMU input sequence (however corrupted) may produce NaN/inf
    state or break covariance symmetry — the filter must stay numerically
    alive through any fault the injector can produce."""
    ekf = Ekf()
    t = 0.0
    for accel, gyro in stream:
        t += 0.01
        ekf.predict(ImuSample(t, accel, gyro), 0.01)
    fix = GpsSample(t, np.zeros(3), np.zeros(3), 0.4, 0.8)
    ekf.update_gps(fix)
    ekf.update_baro(0.0)
    ekf.update_mag_yaw(0.0)

    assert np.all(np.isfinite(ekf.quaternion))
    assert np.all(np.isfinite(ekf.velocity_ned))
    assert np.all(np.isfinite(ekf.position_ned))
    assert np.all(np.isfinite(ekf.covariance))
    # Unit quaternion and (near-)symmetric covariance.
    assert abs(float(ekf.quaternion @ ekf.quaternion) - 1.0) < 1e-6
    asym = np.max(np.abs(ekf.covariance - ekf.covariance.T))
    assert asym < 1e-6
    # Diagonal stays non-negative (it is a covariance).
    assert np.all(np.diag(ekf.covariance) >= -1e-9)
