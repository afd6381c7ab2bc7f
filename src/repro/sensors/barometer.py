"""Barometric altimeter model."""

from __future__ import annotations

import numpy as np


# White noise plus a slow pressure-drift walk.
RATE_HZ = 20.0
NOISE_M = 0.15
DRIFT_RATE_M_SQRT_S = 0.005
#: Per-sample sigma of the drift walk at :data:`RATE_HZ`.
DRIFT_SIGMA_M = DRIFT_RATE_M_SQRT_S * np.sqrt(1.0 / RATE_HZ)


class Barometer:
    """Measures altitude above the origin (positive up) at :data:`RATE_HZ`."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._interval = 1.0 / RATE_HZ
        self._next_sample_time = 0.0
        self._drift = 0.0

    def maybe_sample(self, time_s: float, altitude_m: float) -> float | None:
        """Return a noisy altitude (m) if a sample is due, else ``None``."""
        if time_s + 1e-9 < self._next_sample_time:
            return None
        self._next_sample_time = time_s + self._interval
        self._drift += self._rng.normal(0.0, DRIFT_SIGMA_M)
        return altitude_m + self._drift + self._rng.normal(0.0, NOISE_M)
