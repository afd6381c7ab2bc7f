"""The two PX4 failure-detection defaults the paper cites.

The paper keeps PX4's defaults ("we have maintained default settings for
simplicity"), and so does this vehicle: every flight-stack value is a
constant of the module that reads it. These two are the ones the
ablation studies vary, so they are also the defaults of
:class:`repro.system.SystemConfig`, the vehicle's one knob surface: a
60 deg/s gyro failure-detection threshold and a minimum 1900 ms
sensor-isolation time before the failsafe engages.
"""

from __future__ import annotations

import math

#: PX4 ``FD_*``-style gyro-rate failure-detection threshold.
FD_GYRO_RATE_THRESHOLD_RAD_S = math.radians(60.0)

#: Sensor isolation: the module first deactivates the primary sensor
#: and tries redundant ones; only after this (minimum 1900 ms in the
#: paper's observations) does the failsafe itself engage.
FS_ISOLATION_TIME_S = 1.9
