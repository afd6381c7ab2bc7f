"""Primary selection, switchover, and degraded-mode fallback.

The :class:`RedundancyManager` owns which bank member feeds the flight
stack. It runs the voter every tick, but only *acts* while the failsafe
is in its ISOLATING stage — mirroring PX4, where redundant-sensor
isolation is a stage of failsafe handling rather than a continuous
background swap. When the current primary is voted unhealthy during
isolation, the manager retires it, promotes the best healthy member,
and reports the switch so the vehicle can reseed the EKF and restart
the isolation window. When no healthy member remains, it enters the
DEGRADED fallback: the stack flies on the bank's member-wise median
(the best estimate a mid-value voter can produce from corrupted
streams) and the EKF leans on complementary gravity-tilt aiding for
attitude, which is the paper's all-sensors-faulty outcome.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.obs.trace import NULL_SINK, EventSink
from repro.redundancy.voter import Voter, VoteReport
from repro.sensors.imu import ImuSample


class RecoveryState(enum.Enum):
    """Where the redundancy machinery currently is."""

    NOMINAL = "nominal"
    SWITCHED = "switched"
    DEGRADED = "degraded"


#: Human-readable dispatch over the recovery states (kept total — the
#: reprolint FM001 exhaustiveness rule checks this table).
RECOVERY_STATE_DESCRIPTIONS: dict[RecoveryState, str] = {
    RecoveryState.NOMINAL: "flying on the original primary IMU",
    RecoveryState.SWITCHED: "flying on a redundant member after switchover",
    RecoveryState.DEGRADED: "no healthy member; median + complementary attitude fallback",
}


@dataclass(frozen=True)
class SwitchEvent:
    """One primary switchover, for logs and results."""

    time_s: float
    from_member: int
    to_member: int


@dataclass(frozen=True, slots=True)
class Selection:
    """What the manager decided this tick.

    ``switched`` / ``exhausted`` are edge-triggered: true only on the
    tick the event happened, so the vehicle performs EKF reseeding and
    failsafe reporting exactly once per event.
    """

    sample: ImuSample
    state: RecoveryState
    switched: bool = False
    exhausted: bool = False
    report: VoteReport | None = None


class RedundancyManager:
    """Selects the flight stack's IMU stream from the bank."""

    def __init__(self, num_members: int, enabled: bool) -> None:
        self.enabled = enabled and num_members >= 2
        self.num_members = num_members
        #: Trace sink for switchover events; a no-op without an observer.
        self.obs: EventSink = NULL_SINK
        self.voter = Voter(num_members)
        self.primary = 0
        self.state = RecoveryState.NOMINAL
        self.failed_members: set[int] = set()
        self.events: list[SwitchEvent] = []
        self.last_report: VoteReport | None = None

    @property
    def degraded(self) -> bool:
        """True while flying the no-healthy-member fallback."""
        return self.state is RecoveryState.DEGRADED

    def describe(self) -> str:
        return RECOVERY_STATE_DESCRIPTIONS[self.state]

    def select(
        self,
        time_s: float,
        samples: list[ImuSample],
        dt: float,
        isolating: bool,
    ) -> Selection:
        """Pick the sample to feed the stack this tick.

        ``isolating`` is whether the failsafe is currently in its
        ISOLATING stage; switchover and degradation only happen there.
        """
        if not self.enabled:
            return Selection(sample=samples[self.primary], state=self.state)

        report = self.voter.update(samples, dt)
        self.last_report = report
        switched = False
        exhausted = False

        if isolating and (
            report.unhealthy[self.primary] or self.primary in self.failed_members
        ):
            target = report.preferred_member(
                exclude=self.failed_members | {self.primary}
            )
            if target is not None:
                self.failed_members.add(self.primary)
                self.events.append(SwitchEvent(time_s, self.primary, target))
                self.obs.emit(
                    "imu.switchover",
                    time_s,
                    from_member=self.primary,
                    to_member=target,
                )
                self.primary = target
                self.state = RecoveryState.SWITCHED
                switched = True
            elif self.state is not RecoveryState.DEGRADED:
                self.state = RecoveryState.DEGRADED
                exhausted = True
                self.obs.emit(
                    "imu.exhausted", time_s, failed=len(self.failed_members) + 1
                )
        elif self.degraded and not report.unhealthy[self.primary]:
            # The fault window ended and the primary's stream is clean
            # again (e.g. a transient ALL-scope fault): leave fallback.
            self.state = (
                RecoveryState.SWITCHED if self.events else RecoveryState.NOMINAL
            )
            self.obs.emit("imu.degraded_exit", time_s, state=self.state.value)

        sample = samples[self.primary]
        if self.degraded:
            # Best effort when every member is corrupted: fly the bank
            # median. For an ALL-scope fault this is still faulty data
            # (the paper's outcome); for disjoint per-member faults it
            # rejects the outliers.
            sample = ImuSample(
                time_s=sample.time_s,
                accel=report.median_accel.copy(),
                gyro=report.median_gyro.copy(),
            )
        return Selection(
            sample=sample,
            state=self.state,
            switched=switched,
            exhausted=exhausted,
            report=report,
        )
