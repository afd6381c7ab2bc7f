"""Redundant IMU bank, cross-sensor voting, and recovery.

This package makes the failsafe's "try redundant sensors" isolation
stage real: an :class:`ImuBank` of independently seeded sensors, a
median/residual :class:`Voter` with debounced mismatch detection, and
a :class:`RedundancyManager` that switches the primary (or degrades to
a median/complementary fallback) while the failsafe is isolating.
Disabled by default — the stock vehicle stays the paper's single-IMU
platform, bit-identical to the pre-redundancy pipeline.
"""

from repro.redundancy.bank import MEMBER_SEED_STRIDE, ImuBank, RedundancyConfig
from repro.redundancy.recovery import (
    RECOVERY_STATE_DESCRIPTIONS,
    RecoveryState,
    RedundancyManager,
    Selection,
    SwitchEvent,
)
from repro.redundancy.voter import Voter, VoteReport

__all__ = [
    "MEMBER_SEED_STRIDE",
    "ImuBank",
    "RedundancyConfig",
    "RECOVERY_STATE_DESCRIPTIONS",
    "RecoveryState",
    "RedundancyManager",
    "Selection",
    "SwitchEvent",
    "Voter",
    "VoteReport",
]
