"""Cascaded flight control — the PX4 multicopter controller substitute.

The cascade mirrors PX4's topology, which matters for fault propagation:

* position -> velocity -> acceleration loops consume **EKF estimates**,
  so accelerometer faults reach them through the filter;
* the attitude loop consumes the **EKF quaternion**;
* the body-rate loop consumes the **raw gyro signal** directly, so
  gyroscope faults destabilise the vehicle with no filtering in between
  (exactly why the paper finds gyro faults so much deadlier).
"""

from repro.control.pid import Pid, PidParams
from repro.control.position import PositionController
from repro.control.attitude import AttitudeController
from repro.control.rate import RateController
from repro.control.mixer import Mixer

__all__ = [
    "Pid",
    "PidParams",
    "PositionController",
    "AttitudeController",
    "RateController",
    "Mixer",
]
