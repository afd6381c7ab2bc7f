"""GNSS receiver model: noisy position/velocity at a low rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# A good multi-band receiver in open sky; the paper's missions fly in
# simulated clear conditions (GPS faults were covered by the authors'
# earlier studies, not here).
RATE_HZ = 5.0
HORIZONTAL_NOISE_M = 0.4
VERTICAL_NOISE_M = 0.8
VELOCITY_NOISE_M_S = 0.1


@dataclass(slots=True)
class GpsSample:
    """One GNSS fix: NED position and velocity with quoted accuracies."""

    time_s: float
    position_ned: np.ndarray
    velocity_ned: np.ndarray
    horizontal_accuracy_m: float
    vertical_accuracy_m: float


class GpsModel:
    """Samples ground truth into GNSS fixes at :data:`RATE_HZ`.

    :meth:`maybe_sample` returns ``None`` between fixes so the caller can
    drive it from the fast physics loop without bookkeeping.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._interval = 1.0 / RATE_HZ
        self._next_sample_time = 0.0

    def maybe_sample(
        self, time_s: float, position_ned: np.ndarray, velocity_ned: np.ndarray
    ) -> GpsSample | None:
        """Return a fix if one is due at ``time_s``, else ``None``."""
        if time_s + 1e-9 < self._next_sample_time:
            return None
        self._next_sample_time = time_s + self._interval
        pos_noise = np.array(
            [
                self._rng.normal(0.0, HORIZONTAL_NOISE_M),
                self._rng.normal(0.0, HORIZONTAL_NOISE_M),
                self._rng.normal(0.0, VERTICAL_NOISE_M),
            ]
        )
        vel_noise = self._rng.normal(0.0, VELOCITY_NOISE_M_S, size=3)
        return GpsSample(
            time_s=time_s,
            position_ned=position_ned + pos_noise,
            velocity_ned=velocity_ned + vel_noise,
            horizontal_accuracy_m=HORIZONTAL_NOISE_M,
            vertical_accuracy_m=VERTICAL_NOISE_M,
        )
