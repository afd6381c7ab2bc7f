"""Inertial measurement unit: accelerometer + gyroscope triads.

The measurement ranges configured here are what give the paper's
``Min`` / ``Max`` / ``Random``-in-range fault behaviours their physical
values: a ``Gyro Max`` injection emits the gyroscope's positive
saturation limit on all three axes, exactly as a saturated or attacked
MEMS part would.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.sim.environment import GRAVITY_M_S2


# A tactical-grade consumer MEMS part: the +/-16 g accelerometer and
# +/-2000 deg/s gyroscope ranges bound the paper's Min/Max/Random fault
# values. Each triad has white noise (per-sample sigma), a turn-on bias
# (sigma, drawn once per run) and a bias random walk (rate).
ACCEL_RANGE_M_S2 = 16.0 * GRAVITY_M_S2
ACCEL_NOISE_DENSITY = 0.05
ACCEL_BIAS_SIGMA = 0.03
ACCEL_BIAS_INSTABILITY = 0.0005
GYRO_RANGE_RAD_S = math.radians(2000.0)
GYRO_NOISE_DENSITY = 0.003
GYRO_BIAS_SIGMA = 0.002
GYRO_BIAS_INSTABILITY = 5e-5


@dataclass(slots=True)
class ImuSample:
    """One IMU output sample.

    ``accel`` is specific force in body axes (m/s^2); ``gyro`` is body
    angular rate (rad/s); ``time_s`` is the sample timestamp.
    """

    time_s: float
    accel: np.ndarray
    gyro: np.ndarray

    def copy(self) -> "ImuSample":
        return ImuSample(self.time_s, self.accel.copy(), self.gyro.copy())


class ImuStack:
    """``len(seeds)`` identically configured IMUs sampled in one stacked pass.

    Member ``k`` owns generator ``default_rng(seeds[k])``. It draws its
    turn-on biases (accelerometer, then gyroscope) at construction and
    one row of standard normals per tick, exactly as a lone IMU with
    that seed would. The bias walk, white noise, and saturation then run
    once over ``(N, 2, 3)`` arrays (member, triad, axis; triad 0 is the
    accelerometer, 1 the gyroscope). Those ops are elementwise, so every
    member's sample is bit-identical to sampling it on its own.

    ``bias`` is the only copy of each member's drifting bias. No view of
    a stacked array is stored anywhere: each tick's last step writes
    member ``k``'s rows into its reused :class:`ImuSample`, so a deep
    copy of the vehicle keeps no detached views.
    """

    def __init__(self, seeds: Sequence[int]):
        if not seeds:
            raise ValueError("an IMU stack needs at least one member")
        n = len(seeds)
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self.bias = np.empty((n, 2, 3))
        for k, rng in enumerate(self._rngs):
            for t, sigma in enumerate((ACCEL_BIAS_SIGMA, GYRO_BIAS_SIGMA)):
                self.bias[k, t] = rng.normal(0.0, sigma, size=3)

        # A member's per-tick draw holds, in the order a lone IMU draws
        # them: the accelerometer's bias walk and noise, then the
        # gyroscope's. One standard-normal draw replaces the per-triad
        # `rng.normal` calls: the Generator emits the same stream, and
        # `sigma * z == normal(0, sigma)` bit-for-bit. Scaled, the draw
        # is viewed as (triad, walk/noise, axis).
        self._z = np.empty((n, 12))
        self._scaled = np.zeros((n, 2, 2, 3))
        self._scales = np.zeros(12)
        self._scales_dt = math.nan
        self._truth = np.zeros((2, 3))
        self._out = np.zeros((n, 2, 3))
        self._low = np.array([[-ACCEL_RANGE_M_S2], [-GYRO_RANGE_RAD_S]])
        # Output samples, reused every tick: downstream consumers (voter,
        # injector, EKF, controllers) all read-or-copy within the tick.
        self._samples = [ImuSample(0.0, np.zeros(3), np.zeros(3)) for _ in range(n)]

    def sample(
        self, time_s: float, specific_force_body: np.ndarray, angular_rate_body: np.ndarray, dt: float
    ) -> list[ImuSample]:
        """Sample every member's triads against ground truth.

        Returns the reused per-member samples, overwritten on the next
        call; copy one to keep it across ticks.
        """
        if dt != self._scales_dt:
            # Each column's sigma, computed as the per-triad scalar was.
            self._scales[:] = (
                [ACCEL_BIAS_INSTABILITY * math.sqrt(dt)] * 3
                + [ACCEL_NOISE_DENSITY] * 3
                + [GYRO_BIAS_INSTABILITY * math.sqrt(dt)] * 3
                + [GYRO_NOISE_DENSITY] * 3
            )
            self._scales_dt = dt
        z = self._z
        for k, rng in enumerate(self._rngs):
            rng.standard_normal(out=z[k])
        scaled = self._scaled
        np.multiply(z, self._scales, out=scaled.reshape(z.shape))

        self.bias += scaled[:, :, 0]
        truth = self._truth
        truth[0] = specific_force_body
        truth[1] = angular_rate_body
        out = self._out
        np.add(truth, self.bias, out=out)
        out += scaled[:, :, 1]
        np.maximum(out, self._low, out=out)

        # The upper clamp writes member k's rows straight into its sample.
        for k, sample in enumerate(self._samples):
            sample.time_s = time_s
            np.minimum(out[k, 0], ACCEL_RANGE_M_S2, out=sample.accel)
            np.minimum(out[k, 1], GYRO_RANGE_RAD_S, out=sample.gyro)
        return self._samples
