"""The IMU fault model (paper Table I).

The paper surveys fourteen real-world fault and attack classes and shows
each can be represented by one of seven injectable behaviours:

=============  ====================================================
Behaviour      Represents (Table I)
=============  ====================================================
FIXED          False data injection, hardware trojan, OS attack
ZEROS          Damaged IMU, gyro/acc failure, physical isolation,
               malicious software
FREEZE         Constant output (update lag)
RANDOM         Instability (radiation/temperature), acoustic attack,
               malicious software
MIN            OS system attack (saturating low)
MAX            OS system attack (saturating high)
NOISE          Bias error, gyro drift, acc drift
=============  ====================================================

Each behaviour transforms a 3-axis sensor sample given the sensor's
measurement range, so ``MIN``/``MAX``/``RANDOM``/``FIXED`` take on the
physical saturation values of the modelled MEMS part.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class FaultType(enum.Enum):
    """The seven injectable fault behaviours of the paper's fault model."""

    FIXED = "fixed"
    ZEROS = "zeros"
    FREEZE = "freeze"
    RANDOM = "random"
    MIN = "min"
    MAX = "max"
    NOISE = "noise"


class FaultScope(enum.Enum):
    """Which members of a redundant IMU bank a fault corrupts.

    The paper's campaigns corrupt the sensor data stream *after* the
    driver layer, so every redundant sensor sees the same fault —
    that is :attr:`ALL`, the default, and it reproduces the paper's
    results exactly. :attr:`PRIMARY_ONLY` and :attr:`MEMBERS` model
    faults that hit physical sensor instances (a damaged chip, a
    targeted attack on one bus), which is where redundancy can
    actually buy resilience.
    """

    ALL = "all"
    PRIMARY_ONLY = "primary_only"
    MEMBERS = "members"


class FaultTarget(enum.Enum):
    """Which IMU component the fault is injected into."""

    ACCEL = "accel"
    GYRO = "gyro"
    IMU = "imu"  # both accelerometer and gyrometer together

    @property
    def affects_accel(self) -> bool:
        return self in (FaultTarget.ACCEL, FaultTarget.IMU)

    @property
    def affects_gyro(self) -> bool:
        return self in (FaultTarget.GYRO, FaultTarget.IMU)

    @property
    def label(self) -> str:
        """Display name used in the paper's tables."""
        return {"accel": "Acc", "gyro": "Gyro", "imu": "IMU"}[self.value]


@dataclass(frozen=True)
class FaultSpec:
    """A scheduled fault injection.

    The default ``noise_fraction`` scales the NOISE behaviour's standard
    deviation as a fraction of the sensor range ("a not so drastic
    random value added/subtracted to the current value").
    """

    fault_type: FaultType
    target: FaultTarget
    start_time_s: float
    duration_s: float
    seed: int = 0
    noise_fraction: float = 0.05
    noise_bias_fraction: float = 0.03
    scope: FaultScope = FaultScope.ALL
    scope_members: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.start_time_s < 0.0:
            raise ValueError("start_time_s must be non-negative")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        if not 0.0 < self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must be in (0, 1]")
        if not 0.0 <= self.noise_bias_fraction <= 1.0:
            raise ValueError("noise_bias_fraction must be in [0, 1]")
        if self.scope is FaultScope.MEMBERS:
            if not self.scope_members:
                raise ValueError("scope=MEMBERS requires a non-empty scope_members")
            if any(m < 0 for m in self.scope_members):
                raise ValueError("scope_members must be non-negative bank indices")
        elif self.scope_members:
            raise ValueError("scope_members is only valid with scope=MEMBERS")

    def affects_member(self, member_index: int) -> bool:
        """True when this fault corrupts bank member ``member_index``.

        Member 0 is the primary sensor; a single-IMU vehicle only ever
        asks about member 0, for which ALL and PRIMARY_ONLY agree.
        """
        if self.scope is FaultScope.ALL:
            return True
        if self.scope is FaultScope.PRIMARY_ONLY:
            return member_index == 0
        if self.scope is FaultScope.MEMBERS:
            return member_index in self.scope_members
        raise ValueError(f"unhandled fault scope: {self.scope}")

    @property
    def end_time_s(self) -> float:
        return self.start_time_s + self.duration_s

    def is_active(self, time_s: float) -> bool:
        """True inside the injection window ``[start, start+duration)``."""
        return self.start_time_s <= time_s < self.end_time_s

    @property
    def label(self) -> str:
        """Row label as used in the paper's Table III, e.g. 'Acc Freeze'."""
        names = {
            FaultType.FIXED: "Fixed Value",
            FaultType.ZEROS: "Zeros",
            FaultType.FREEZE: "Freeze",
            FaultType.RANDOM: "Random",
            FaultType.MIN: "Min",
            FaultType.MAX: "Max",
            FaultType.NOISE: "Noise",
        }
        return f"{self.target.label} {names[self.fault_type]}"


class FaultBehavior:
    """Applies one :class:`FaultType` to a 3-axis sample stream.

    One instance handles one sensor triad for one injection window; the
    injector creates fresh behaviours per run, so all randomness is
    local and reproducible from the spec's seed.
    """

    def __init__(
        self,
        fault_type: FaultType,
        sensor_range: float,
        seed: int,
        noise_fraction: float,
        noise_bias_fraction: float = 0.03,
    ) -> None:
        if sensor_range <= 0.0:
            raise ValueError("sensor_range must be positive")
        self.fault_type = fault_type
        self.sensor_range = sensor_range
        self.noise_fraction = noise_fraction
        self.noise_bias_fraction = noise_bias_fraction
        self._rng = np.random.default_rng(seed)
        self._frozen: np.ndarray | None = None
        self._fixed: np.ndarray | None = None
        self._noise_bias = np.zeros(3)

    def on_activation(self, last_clean_sample: np.ndarray) -> None:
        """Latch state needed at the moment the injection begins."""
        self._frozen = last_clean_sample.copy()
        # FIXED: "a Random constant value" drawn once per injection.
        self._fixed = self._rng.uniform(-self.sensor_range, self.sensor_range, size=3)
        # NOISE: the surveyed faults it represents (bias error, gyro/acc
        # drift) have a systematic component on top of the added noise,
        # so one offset per window is drawn alongside the white noise.
        self._noise_bias = self._rng.uniform(
            -self.noise_bias_fraction * self.sensor_range,
            self.noise_bias_fraction * self.sensor_range,
            size=3,
        )

    def apply(self, clean_value: np.ndarray) -> np.ndarray:
        """Corrupt one sample (returns a new array)."""
        r = self.sensor_range
        kind = self.fault_type
        if kind == FaultType.ZEROS:
            return np.zeros(3)
        if kind == FaultType.FREEZE:
            if self._frozen is None:
                raise RuntimeError("FREEZE applied before on_activation")
            return self._frozen.copy()
        if kind == FaultType.FIXED:
            if self._fixed is None:
                raise RuntimeError("FIXED applied before on_activation")
            return self._fixed.copy()
        if kind == FaultType.RANDOM:
            return self._rng.uniform(-r, r, size=3)
        if kind == FaultType.MIN:
            return np.full(3, -r)
        if kind == FaultType.MAX:
            return np.full(3, r)
        if kind == FaultType.NOISE:
            noisy = (
                clean_value
                + self._noise_bias
                + self._rng.normal(0.0, self.noise_fraction * r, size=3)
            )
            return np.clip(noisy, -r, r)
        raise ValueError(f"unhandled fault type: {kind}")


@dataclass(frozen=True)
class FaultModelEntry:
    """One row of the paper's Table I: a real-world fault class."""

    name: str
    description: str
    represented_by: tuple[FaultType, ...]
    references: str


#: The paper's Table I, mapping surveyed fault classes to behaviours.
FAULT_MODEL_CATALOG: tuple[FaultModelEntry, ...] = (
    FaultModelEntry(
        "Instability",
        "Random values due to factors like radiation or temperature",
        (FaultType.RANDOM,),
        "[10], [19]-[22]",
    ),
    FaultModelEntry(
        "Bias error",
        "Noise from old sensors or temperature",
        (FaultType.NOISE,),
        "[19], [22]-[24]",
    ),
    FaultModelEntry(
        "Gyro drift",
        "Constant measurement error from aging, noise, or thermal bias",
        (FaultType.NOISE,),
        "[19], [20], [25], [26]",
    ),
    FaultModelEntry(
        "Acc drift",
        "Constant measurement error from aging, noise, or thermal bias",
        (FaultType.NOISE,),
        "[19], [20], [27], [28]",
    ),
    FaultModelEntry(
        "Constant output",
        "Update lag delivering the same frozen values",
        (FaultType.FREEZE,),
        "[19]",
    ),
    FaultModelEntry(
        "Damaged IMU",
        "IMU damaged by age or external factors; all sensors fail",
        (FaultType.ZEROS,),
        "[29], [30]",
    ),
    FaultModelEntry(
        "Gyro failure",
        "Gyro sensor damaged or failed",
        (FaultType.ZEROS,),
        "[30]-[33]",
    ),
    FaultModelEntry(
        "Acc failure",
        "Accelerometer sensor damaged or failed",
        (FaultType.ZEROS,),
        "[30], [31], [34]",
    ),
    FaultModelEntry(
        "Acoustic attack",
        "Broadband pulsed or CW acoustic energy on MEMS sensors",
        (FaultType.RANDOM,),
        "[35], [36]",
    ),
    FaultModelEntry(
        "False data injection",
        "Fake series of data injected",
        (FaultType.FIXED,),
        "[37]-[39]",
    ),
    FaultModelEntry(
        "Physical isolation",
        "Sensors attacked to stop responding",
        (FaultType.ZEROS,),
        "[40]",
    ),
    FaultModelEntry(
        "Hardware trojan",
        "Electronic hardware modified (circuit tampering, gate resizing)",
        (FaultType.FIXED,),
        "[41]",
    ),
    FaultModelEntry(
        "Malicious software",
        "GCS or flight controller compromised",
        (FaultType.ZEROS, FaultType.RANDOM),
        "[35]",
    ),
    FaultModelEntry(
        "OS system attack",
        "Attacks through the flight controller's system software",
        (FaultType.MIN, FaultType.MAX, FaultType.FIXED),
        "[42]",
    ),
)

