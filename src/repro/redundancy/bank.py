"""A bank of redundant IMUs with per-member fault injection.

The paper's vehicle carries a single IMU (its campaigns corrupt the
stream *after* the driver, so redundancy could never help — see
DESIGN.md section 10). The bank generalises that: an
:class:`~repro.sensors.imu.ImuStack` of N members with independent
noise/bias seeds, sampled member by member, each member behind its
own :class:`~repro.core.injector.SensorFaultInjector` so a
:class:`~repro.core.faults.FaultScope` can corrupt any subset of
members. A bank of one member with the default ALL scope is
bit-identical to the pre-redundancy single-IMU pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.faults import FaultSpec
from repro.core.injector import SensorFaultInjector
from repro.sensors.imu import ACCEL_RANGE_M_S2, GYRO_RANGE_RAD_S, ImuSample, ImuStack

#: Seed stride between bank members. Member 0 keeps the base seed
#: exactly (baseline bit-identity); a large prime stride keeps the
#: other members' streams far from every seed the campaign derives
#: (mission seeds advance by 1009, sensor seeds by 1).
MEMBER_SEED_STRIDE = 100_003


@dataclass(frozen=True)
class RedundancyConfig:
    """Vehicle-level redundancy settings.

    Disabled by default: the stock vehicle is the paper's single-IMU
    platform and produces bit-identical results to the pre-redundancy
    code. Enabling it instantiates ``num_members`` IMUs plus the voter
    and switchover machinery.
    """

    enabled: bool = False
    num_members: int = 3

    def __post_init__(self) -> None:
        if self.num_members < 1:
            raise ValueError("num_members must be >= 1")
        if self.enabled and self.num_members < 2:
            raise ValueError("redundancy needs at least 2 bank members")


class ImuBank:
    """``num_members`` independently seeded IMUs, each with its own injector.

    The stack ``imus`` owns every member's generator and bias; the bank
    adds the injectors.
    """

    def __init__(
        self,
        fault: FaultSpec | None,
        num_members: int,
        base_seed: int,
    ) -> None:
        if num_members < 1:
            raise ValueError("num_members must be >= 1")
        self.num_members = num_members
        self.imus = ImuStack(
            [base_seed + k * MEMBER_SEED_STRIDE for k in range(num_members)]
        )
        self.injectors: list[SensorFaultInjector] = []
        self.arm(fault)

    def arm(self, fault: FaultSpec | None) -> None:
        """Put a fresh injector for ``fault`` in front of every member."""
        self.injectors = [
            SensorFaultInjector(
                fault, ACCEL_RANGE_M_S2, GYRO_RANGE_RAD_S, member_index=k
            )
            for k in range(self.num_members)
        ]

    def sample(
        self,
        time_s: float,
        specific_force_body: np.ndarray,
        angular_rate_body: np.ndarray,
        dt: float,
    ) -> list[ImuSample]:
        """One measurement per member, each through its own injector."""
        samples = self.imus.sample(time_s, specific_force_body, angular_rate_body, dt)
        return [
            injector.apply(sample)
            for sample, injector in zip(samples, self.injectors)
        ]

    def corrupted_members(self, time_s: float) -> tuple[int, ...]:
        """Indices whose stream is corrupted at ``time_s`` (ground truth,
        for tests and analysis — the flight stack never sees this)."""
        return tuple(
            k
            for k, injector in enumerate(self.injectors)
            if injector.corrupts(time_s)
        )
