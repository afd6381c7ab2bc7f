"""Magnetometer (compass) model.

The paper explicitly excludes the magnetometer from its fault model, but
the EKF still needs a yaw reference to stay observable, so a clean
compass is modelled here and never targeted by the injector.
"""

from __future__ import annotations

import numpy as np

from repro.mathutils import quat_to_euler, wrap_angle


#: Heading white noise; the installation is bias-free.
RATE_HZ = 20.0
HEADING_NOISE_RAD = 0.01


class Magnetometer:
    """Produces yaw (heading) measurements from the true attitude."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._interval = 1.0 / RATE_HZ
        self._next_sample_time = 0.0

    def maybe_sample(self, time_s: float, quaternion: np.ndarray) -> float | None:
        """Return a noisy yaw (rad, wrapped) if a sample is due."""
        if time_s + 1e-9 < self._next_sample_time:
            return None
        self._next_sample_time = time_s + self._interval
        _, _, yaw = quat_to_euler(quaternion)
        noisy = yaw + self._rng.normal(0.0, HEADING_NOISE_RAD)
        return wrap_angle(noisy)
