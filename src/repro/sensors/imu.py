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

from repro.mathutils.numerics import clip_float
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
    """``len(seeds)`` identically configured IMUs, sampled member by member.

    Member ``k`` owns generator ``default_rng(seeds[k])``. It draws its
    turn-on biases (accelerometer, then gyroscope) at construction and
    twelve standard normals per tick, exactly as a lone IMU with that
    seed would. Each member's bias walk, white noise and saturation run
    on Python floats, in the operation order of the numpy originals, so
    every member's sample is bit-identical to sampling it on its own.

    ``bias[k]`` holds member ``k``'s six drifting biases as floats
    (accelerometer x, y, z, then gyroscope x, y, z) and is the only copy
    of them. Each tick writes member ``k``'s readings into its reused
    :class:`ImuSample`; no array view is stored, so a deep copy of the
    vehicle flies on bit-identically.
    """

    def __init__(self, seeds: Sequence[int]):
        if not seeds:
            raise ValueError("an IMU stack needs at least one member")
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self.bias = [
            rng.normal(0.0, ACCEL_BIAS_SIGMA, size=3).tolist()
            + rng.normal(0.0, GYRO_BIAS_SIGMA, size=3).tolist()
            for rng in self._rngs
        ]
        # A member's per-tick draw holds, in the order a lone IMU draws
        # them: the accelerometer's bias walk and noise, then the
        # gyroscope's. One standard-normal draw replaces the per-triad
        # `rng.normal` calls: the Generator emits the same stream, and
        # `sigma * z == normal(0, sigma)` bit-for-bit.
        self._z = np.empty(12)
        self._walk_dt = math.nan
        self._accel_walk = math.nan
        self._gyro_walk = math.nan
        # Output samples, reused every tick: downstream consumers (voter,
        # injector, EKF, controllers) all read-or-copy within the tick.
        self._samples = [ImuSample(0.0, np.zeros(3), np.zeros(3)) for _ in self._rngs]

    def sample(
        self, time_s: float, specific_force_body: np.ndarray, angular_rate_body: np.ndarray, dt: float
    ) -> list[ImuSample]:
        """Sample every member's triads against ground truth.

        Returns the reused per-member samples, overwritten on the next
        call; copy one to keep it across ticks.
        """
        if dt != self._walk_dt:
            # Each walk's sigma, computed as the per-triad scalar was.
            self._accel_walk = ACCEL_BIAS_INSTABILITY * math.sqrt(dt)
            self._gyro_walk = GYRO_BIAS_INSTABILITY * math.sqrt(dt)
            self._walk_dt = dt
        accel_walk = self._accel_walk
        gyro_walk = self._gyro_walk
        f0, f1, f2 = specific_force_body.tolist()
        r0, r1, r2 = angular_rate_body.tolist()
        a_max = ACCEL_RANGE_M_S2
        g_max = GYRO_RANGE_RAD_S
        z = self._z
        for rng, bias, sample in zip(self._rngs, self.bias, self._samples):
            rng.standard_normal(out=z)
            w0, w1, w2, n0, n1, n2, v0, v1, v2, m0, m1, m2 = z.tolist()
            b0, b1, b2, c0, c1, c2 = bias
            # Bias walk: `bias += sigma * z`.
            b0 = b0 + w0 * accel_walk
            b1 = b1 + w1 * accel_walk
            b2 = b2 + w2 * accel_walk
            c0 = c0 + v0 * gyro_walk
            c1 = c1 + v1 * gyro_walk
            c2 = c2 + v2 * gyro_walk
            bias[:] = (b0, b1, b2, c0, c1, c2)
            # `clip(truth + bias + sigma * z, -range, range)`.
            sample.time_s = time_s
            accel = sample.accel
            accel[0] = clip_float(f0 + b0 + n0 * ACCEL_NOISE_DENSITY, -a_max, a_max)
            accel[1] = clip_float(f1 + b1 + n1 * ACCEL_NOISE_DENSITY, -a_max, a_max)
            accel[2] = clip_float(f2 + b2 + n2 * ACCEL_NOISE_DENSITY, -a_max, a_max)
            gyro = sample.gyro
            gyro[0] = clip_float(r0 + c0 + m0 * GYRO_NOISE_DENSITY, -g_max, g_max)
            gyro[1] = clip_float(r1 + c1 + m1 * GYRO_NOISE_DENSITY, -g_max, g_max)
            gyro[2] = clip_float(r2 + c2 + m2 * GYRO_NOISE_DENSITY, -g_max, g_max)
        return self._samples
