"""Sensor models — the PX4 driver-layer substitute.

Every sensor samples ground truth from :mod:`repro.sim`, applies its own
imperfection model (bias, white noise, saturation, latency), and emits
measurements. The fault injector (:mod:`repro.core.injector`) sits
*between* the IMU and the EKF, corrupting the already-sampled output —
the same injection point the paper uses inside PX4 (corrupting sensor
data output, not physics).
"""

from repro.sensors.imu import (
    ImuParams,
    ImuSample,
    ImuStack,
    TriadSensorParams,
)
from repro.sensors.gps import GpsModel, GpsParams, GpsSample
from repro.sensors.barometer import Barometer, BarometerParams
from repro.sensors.magnetometer import Magnetometer, MagnetometerParams

__all__ = [
    "ImuParams",
    "ImuSample",
    "ImuStack",
    "TriadSensorParams",
    "GpsModel",
    "GpsParams",
    "GpsSample",
    "Barometer",
    "BarometerParams",
    "Magnetometer",
    "MagnetometerParams",
]
