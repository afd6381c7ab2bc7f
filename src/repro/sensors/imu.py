"""Inertial measurement unit: accelerometer + gyroscope triads.

The measurement ranges configured here are what give the paper's
``Min`` / ``Max`` / ``Random``-in-range fault behaviours their physical
values: a ``Gyro Max`` injection emits the gyroscope's positive
saturation limit on all three axes, exactly as a saturated or attacked
MEMS part would.
"""

from __future__ import annotations

import math
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


class _TriadSensor:
    """A 3-axis sensor's parameters and (drifting) bias; :meth:`Imu.sample`
    adds the bias, white noise, and saturation to both triads at once."""

    def __init__(self, params: TriadSensorParams, rng: np.random.Generator):
        self.params = params
        self.bias = rng.normal(0.0, params.bias_sigma, size=3)


class Accelerometer(_TriadSensor):
    """3-axis accelerometer measuring specific force (m/s^2, body FRD)."""


class Gyroscope(_TriadSensor):
    """3-axis gyroscope measuring angular rate (rad/s, body FRD)."""


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


class Imu:
    """Accelerometer + gyroscope assembly sampled at the physics rate."""

    def __init__(self, params: ImuParams | None = None, seed: int = 0):
        self.params = params or ImuParams()
        rng = np.random.default_rng(seed)
        self._rng = rng
        self.accelerometer = Accelerometer(self.params.accel, rng)
        self.gyroscope = Gyroscope(self.params.gyro, rng)
        # One vectorized standard-normal draw per step replaces the four
        # per-triad `rng.normal` calls. The Generator emits the same
        # variate stream either way, and `sigma * z == normal(0, sigma)`
        # bit-for-bit, so samples are unchanged (pinned by the golden
        # step traces).
        self._accel_walk = self.params.accel.bias_instability > 0.0
        self._gyro_walk = self.params.gyro.bias_instability > 0.0
        n = 6 + (3 if self._accel_walk else 0) + (3 if self._gyro_walk else 0)
        self._z = np.empty(n)
        self._tmp = np.zeros(3)
        # Output buffers, reused every tick: downstream consumers (voter,
        # injector, EKF, controllers) all read-or-copy within the tick.
        self._sample = ImuSample(0.0, np.zeros(3), np.zeros(3))

    def sample(
        self, time_s: float, specific_force_body: np.ndarray, angular_rate_body: np.ndarray, dt: float
    ) -> ImuSample:
        """Sample both triads against ground truth.

        Returns a reused :class:`ImuSample` whose arrays are overwritten
        on the next call; copy it to keep it across ticks.
        """
        z = self._z
        self._rng.standard_normal(out=z)
        tmp = self._tmp
        out = self._sample
        out.time_s = time_s

        i = 0
        p = self.params.accel
        bias = self.accelerometer.bias
        if self._accel_walk:
            np.multiply(z[0:3], p.bias_instability * math.sqrt(dt), out=tmp)
            bias += tmp
            i = 3
        accel = out.accel
        np.add(specific_force_body, bias, out=accel)
        np.multiply(z[i : i + 3], p.noise_density, out=tmp)
        accel += tmp
        np.maximum(accel, -p.measurement_range, out=accel)
        np.minimum(accel, p.measurement_range, out=accel)
        i += 3

        p = self.params.gyro
        bias = self.gyroscope.bias
        if self._gyro_walk:
            np.multiply(z[i : i + 3], p.bias_instability * math.sqrt(dt), out=tmp)
            bias += tmp
            i += 3
        gyro = out.gyro
        np.add(angular_rate_body, bias, out=gyro)
        np.multiply(z[i : i + 3], p.noise_density, out=tmp)
        gyro += tmp
        np.maximum(gyro, -p.measurement_range, out=gyro)
        np.minimum(gyro, p.measurement_range, out=gyro)
        return out

    @property
    def accel_range(self) -> float:
        """Accelerometer saturation limit (m/s^2)."""
        return self.params.accel.measurement_range

    @property
    def gyro_range(self) -> float:
        """Gyroscope saturation limit (rad/s)."""
        return self.params.gyro.measurement_range
