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
from dataclasses import dataclass, field

import numpy as np

from repro.sim.environment import GRAVITY_M_S2


@dataclass
class TriadSensorParams:
    """Imperfection model shared by both 3-axis inertial sensors.

    Attributes:
        measurement_range: symmetric saturation limit (sensor units); the
            sensor reports values in ``[-range, +range]``.
        noise_density: standard deviation of per-sample white noise.
        bias_sigma: standard deviation of the constant turn-on bias drawn
            once per run.
        bias_instability: random-walk rate of the slowly wandering bias.
    """

    measurement_range: float
    noise_density: float
    bias_sigma: float
    bias_instability: float = 0.0

    def __post_init__(self) -> None:
        if self.measurement_range <= 0.0:
            raise ValueError("measurement_range must be positive")
        if self.noise_density < 0.0 or self.bias_sigma < 0.0:
            raise ValueError("noise parameters must be non-negative")


@dataclass
class ImuParams:
    """Combined IMU configuration.

    Defaults model a tactical-grade consumer MEMS part: +/-16 g
    accelerometer, +/-2000 deg/s gyroscope — the ranges that bound the
    paper's Min/Max/Random fault values.
    """

    accel: TriadSensorParams = field(
        default_factory=lambda: TriadSensorParams(
            measurement_range=16.0 * GRAVITY_M_S2,
            noise_density=0.05,
            bias_sigma=0.03,
            bias_instability=0.0005,
        )
    )
    gyro: TriadSensorParams = field(
        default_factory=lambda: TriadSensorParams(
            measurement_range=math.radians(2000.0),
            noise_density=0.003,
            bias_sigma=0.002,
            bias_instability=5e-5,
        )
    )


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

    def __init__(self, params: ImuParams | None, seeds: Sequence[int]):
        if not seeds:
            raise ValueError("an IMU stack needs at least one member")
        self.params = params or ImuParams()
        triads = (self.params.accel, self.params.gyro)
        n = len(seeds)
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self.bias = np.empty((n, 2, 3))
        for k, rng in enumerate(self._rngs):
            for t, p in enumerate(triads):
                self.bias[k, t] = rng.normal(0.0, p.bias_sigma, size=3)

        # A member's per-tick draw holds, in the order a lone IMU draws
        # them: the accelerometer's bias walk (if its bias walks) and
        # noise, then the gyroscope's. One standard-normal draw replaces
        # the per-triad `rng.normal` calls: the Generator emits the same
        # stream, and `sigma * z == normal(0, sigma)` bit-for-bit. The
        # index tables gather each triad's walk and noise columns; a
        # triad whose bias does not walk gathers three spare columns
        # that stay zero (adding +0.0 leaves a bias unchanged: it is
        # drawn as `0.0 + sigma * z`, so it is never -0.0).
        walk_cols: list[list[int]] = []
        noise_cols: list[list[int]] = []
        self._walks = [p.bias_instability > 0.0 for p in triads]
        width = 0
        for walks in self._walks:
            walk_cols.append(list(range(width, width + 3)) if walks else [])
            width += 3 if walks else 0
            noise_cols.append(list(range(width, width + 3)))
            width += 3
        spare = list(range(width, width + 3))
        self._walk_idx = np.array([cols or spare for cols in walk_cols])
        self._noise_idx = np.array(noise_cols)
        self._z = np.empty((n, width))
        self._scaled = np.zeros((n, width + 3))
        self._scales = np.zeros(width)
        self._scales_dt = math.nan
        self._walk = np.zeros((n, 2, 3))
        self._noise = np.zeros((n, 2, 3))
        self._truth = np.zeros((2, 3))
        self._out = np.zeros((n, 2, 3))
        self._low = np.array([[-p.measurement_range] for p in triads])
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
            scales: list[float] = []
            for p, walks in zip((self.params.accel, self.params.gyro), self._walks):
                if walks:
                    scales += [p.bias_instability * math.sqrt(dt)] * 3
                scales += [p.noise_density] * 3
            self._scales[:] = scales
            self._scales_dt = dt
        z = self._z
        for k, rng in enumerate(self._rngs):
            rng.standard_normal(out=z[k])
        scaled = self._scaled
        np.multiply(z, self._scales, out=scaled[:, : z.shape[1]])

        scaled.take(self._walk_idx, axis=1, out=self._walk)
        self.bias += self._walk
        truth = self._truth
        truth[0] = specific_force_body
        truth[1] = angular_rate_body
        out = self._out
        np.add(truth, self.bias, out=out)
        scaled.take(self._noise_idx, axis=1, out=self._noise)
        out += self._noise
        np.maximum(out, self._low, out=out)

        # The upper clamp writes member k's rows straight into its sample.
        accel_range = self.params.accel.measurement_range
        gyro_range = self.params.gyro.measurement_range
        for k, sample in enumerate(self._samples):
            sample.time_s = time_s
            np.minimum(out[k, 0], accel_range, out=sample.accel)
            np.minimum(out[k, 1], gyro_range, out=sample.gyro)
        return self._samples

    @property
    def accel_range(self) -> float:
        """Accelerometer saturation limit (m/s^2)."""
        return self.params.accel.measurement_range

    @property
    def gyro_range(self) -> float:
        """Gyroscope saturation limit (rad/s)."""
        return self.params.gyro.measurement_range

