"""Sensor models — the PX4 driver-layer substitute.

Every sensor samples ground truth from :mod:`repro.sim`, applies its own
imperfection model (bias, white noise, saturation, latency), and emits
measurements. The fault injector (:mod:`repro.core.injector`) sits
*between* the IMU and the EKF, corrupting the already-sampled output —
the same injection point the paper uses inside PX4 (corrupting sensor
data output, not physics).
"""

from repro.sensors.imu import ImuSample, ImuStack
from repro.sensors.gps import GpsModel, GpsSample
from repro.sensors.barometer import Barometer
from repro.sensors.magnetometer import Magnetometer

__all__ = [
    "ImuSample",
    "ImuStack",
    "GpsModel",
    "GpsSample",
    "Barometer",
    "Magnetometer",
]
