"""The commander: flight phases, mission supervision, outcome verdicts."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.flightstack.navigator import Navigator
from repro.missions.plan import MissionPlan
from repro.obs.trace import NULL_SINK, EventSink

# Takeoff / landing envelope.
TAKEOFF_SPEED_M_S = 2.0
LANDING_SPEED_M_S = 1.0
TAKEOFF_ACCEPT_M = 0.6
DISARM_GROUND_TIME_S = 1.5
#: Failsafe descent rate once engaged (emergency land).
FS_DESCENT_SPEED_M_S = 1.2
#: Mission supervision: the mission times out after this factor of its
#: estimated duration, and never before the minimum.
MISSION_TIMEOUT_FACTOR = 2.0
MISSION_TIMEOUT_MIN_S = 120.0


class FlightPhase(enum.Enum):
    """Commander flight phases (PX4 nav-state analogue)."""

    PREFLIGHT = "preflight"
    TAKEOFF = "takeoff"
    MISSION = "mission"
    LANDING = "landing"
    LANDED = "landed"
    FAILSAFE_LAND = "failsafe_land"
    CRASHED = "crashed"


class MissionOutcome(enum.Enum):
    """Terminal mission verdict, the paper's outcome classification.

    ``COMPLETED`` means neither crashed nor failsafe-enabled (Sec.
    III-D.3). ``FAILSAFE`` covers any run in which the failsafe engaged,
    even if the emergency landing then succeeded. ``TIMEOUT`` marks runs
    that never terminated (vehicle lost without impact); the failure
    analysis counts these with failsafe activations.
    """

    COMPLETED = "completed"
    CRASHED = "crashed"
    FAILSAFE = "failsafe"
    TIMEOUT = "timeout"


@dataclass(slots=True)
class CommanderOutput:
    """Setpoints handed to the position controller this cycle."""

    position_sp_ned: np.ndarray
    velocity_ff_ned: np.ndarray
    yaw_sp_rad: float
    cruise_speed_m_s: float
    thrust_idle: bool = False


class Commander:
    """Supervises one mission from arming to a terminal verdict."""

    def __init__(self, plan: MissionPlan):
        self.plan = plan
        self.navigator = Navigator(plan)
        #: Trace sink for phase spans; a no-op unless an observer is on.
        self.obs: EventSink = NULL_SINK
        self.phase = FlightPhase.PREFLIGHT
        self.outcome: MissionOutcome | None = None
        self.takeoff_time_s: float | None = None
        self.end_time_s: float | None = None
        self._ground_since: float | None = None
        self._failsafe_hold_xy: np.ndarray | None = None
        # Hold the pad heading (toward the first cruise leg) until the
        # navigator provides a track heading; commanding yaw 0 here would
        # slew the vehicle through a large yaw change during the climb.
        first = plan.waypoints[0].array
        second = plan.waypoints[1].array
        self._yaw_hold = math.atan2(second[1] - first[1], second[0] - first[0])
        self._timeout_s = max(
            MISSION_TIMEOUT_MIN_S, plan.estimated_duration_s() * MISSION_TIMEOUT_FACTOR
        )
        # Phase targets are mission constants; build them once instead of
        # reallocating every cycle. Outputs are shared read-only arrays.
        home = plan.home_ned
        self._takeoff_target = np.array([home[0], home[1], -plan.cruise_altitude_m])
        self._takeoff_ff = np.array([0.0, 0.0, -TAKEOFF_SPEED_M_S])
        land = plan.landing_ned
        self._landing_target = np.array([land[0], land[1], 0.5])
        self._landing_ff = np.array([0.0, 0.0, LANDING_SPEED_M_S])
        self._failsafe_target: np.ndarray | None = None
        self._fs_ff = np.array([0.0, 0.0, FS_DESCENT_SPEED_M_S])
        self._idle_pos = np.zeros(3)
        self._zero3 = np.zeros(3)
        self._handlers = {
            FlightPhase.PREFLIGHT: self._run_preflight,
            FlightPhase.TAKEOFF: self._run_takeoff,
            FlightPhase.MISSION: self._run_mission,
            FlightPhase.LANDING: self._run_landing,
            FlightPhase.FAILSAFE_LAND: self._run_failsafe_land,
            FlightPhase.LANDED: self._run_terminal,
            FlightPhase.CRASHED: self._run_terminal,
        }

    # ------------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        """True once the mission has a verdict."""
        return self.outcome is not None

    @property
    def in_flight(self) -> bool:
        """True in the phases where failure detection is armed."""
        return self.phase in (FlightPhase.TAKEOFF, FlightPhase.MISSION, FlightPhase.LANDING)

    def arm_and_takeoff(self, time_s: float) -> None:
        """Arm the vehicle and begin the takeoff climb."""
        if self.phase != FlightPhase.PREFLIGHT:
            raise RuntimeError(f"cannot take off from phase {self.phase}")
        self.phase = FlightPhase.TAKEOFF
        self.takeoff_time_s = time_s
        self.obs.phase(time_s, FlightPhase.TAKEOFF.value)

    # ------------------------------------------------------------------

    def update(
        self,
        time_s: float,
        position_est_ned: np.ndarray,
        on_ground: bool,
        failsafe_engaged: bool,
        crashed: bool,
    ) -> CommanderOutput:
        """Advance the phase machine and emit setpoints.

        ``position_est_ned`` is the EKF estimate — the commander, like
        PX4, flies the estimate, not the truth. ``on_ground`` comes from
        the land detector; ``crashed`` from the crash detector.
        """
        if crashed and self.phase not in (FlightPhase.CRASHED, FlightPhase.LANDED):
            # A failsafe that was already executing keeps its verdict even
            # if the emergency landing ends in a hard impact (the paper
            # counts failsafe activation, not its landing quality).
            already_failsafe = self.phase == FlightPhase.FAILSAFE_LAND
            self.phase = FlightPhase.CRASHED
            self.outcome = (
                MissionOutcome.FAILSAFE if already_failsafe else MissionOutcome.CRASHED
            )
            self.end_time_s = time_s
            self.obs.phase(
                time_s, FlightPhase.CRASHED.value, outcome=self.outcome.value
            )

        if self.terminal:
            return self._idle_output(position_est_ned)

        if failsafe_engaged and self.phase in (
            FlightPhase.TAKEOFF,
            FlightPhase.MISSION,
            FlightPhase.LANDING,
        ):
            self.phase = FlightPhase.FAILSAFE_LAND
            self.obs.phase(time_s, FlightPhase.FAILSAFE_LAND.value)
            self._failsafe_hold_xy = position_est_ned[:2].copy()
            self._failsafe_target = np.array(
                [self._failsafe_hold_xy[0], self._failsafe_hold_xy[1], 0.5]
            )

        if time_s - (self.takeoff_time_s or 0.0) > self._timeout_s:
            self.outcome = MissionOutcome.TIMEOUT
            self.end_time_s = time_s
            self.obs.emit("mission.timeout", time_s, limit_s=self._timeout_s)
            return self._idle_output(position_est_ned)

        return self._handlers[self.phase](time_s, position_est_ned, on_ground)

    # ------------------------------------------------------------------
    # Phase handlers
    # ------------------------------------------------------------------

    def _run_preflight(
        self, time_s: float, position: np.ndarray, on_ground: bool
    ) -> CommanderOutput:
        return self._idle_output(position)

    def _run_takeoff(
        self, time_s: float, position: np.ndarray, on_ground: bool
    ) -> CommanderOutput:
        target = self._takeoff_target
        if abs(position[2] - target[2]) < TAKEOFF_ACCEPT_M:
            self.phase = FlightPhase.MISSION
            self.obs.phase(time_s, FlightPhase.MISSION.value)
            return self._run_mission(time_s, position, on_ground)
        return CommanderOutput(target, self._takeoff_ff, self._yaw_hold, 2.0)

    def _run_mission(
        self, time_s: float, position: np.ndarray, on_ground: bool
    ) -> CommanderOutput:
        nav = self.navigator.update(position)
        self._yaw_hold = nav.yaw_sp_rad
        if self.navigator.mission_done:
            self.phase = FlightPhase.LANDING
            self.obs.phase(time_s, FlightPhase.LANDING.value)
            return self._run_landing(time_s, position, on_ground)
        return CommanderOutput(
            nav.position_sp_ned, nav.velocity_ff_ned, nav.yaw_sp_rad, nav.cruise_speed_m_s
        )

    def _run_landing(
        self, time_s: float, position: np.ndarray, on_ground: bool
    ) -> CommanderOutput:
        if self._ground_dwell(time_s, on_ground):
            self.phase = FlightPhase.LANDED
            self.outcome = MissionOutcome.COMPLETED
            self.end_time_s = time_s
            self.obs.phase(
                time_s, FlightPhase.LANDED.value, outcome=self.outcome.value
            )
            return self._idle_output(position)
        # Target sits slightly below ground to keep descending onto it.
        return CommanderOutput(self._landing_target, self._landing_ff, self._yaw_hold, 1.5)

    def _run_failsafe_land(
        self, time_s: float, position: np.ndarray, on_ground: bool
    ) -> CommanderOutput:
        assert self._failsafe_target is not None
        if self._ground_dwell(time_s, on_ground):
            self.phase = FlightPhase.LANDED
            self.outcome = MissionOutcome.FAILSAFE
            self.end_time_s = time_s
            self.obs.phase(
                time_s, FlightPhase.LANDED.value, outcome=self.outcome.value
            )
            return self._idle_output(position)
        return CommanderOutput(self._failsafe_target, self._fs_ff, self._yaw_hold, 2.0)

    def _run_terminal(
        self, time_s: float, position: np.ndarray, on_ground: bool
    ) -> CommanderOutput:
        """LANDED/CRASHED: hold position at idle thrust.

        Normally unreachable (``update`` returns early once a verdict is
        set), but the dispatch table stays total over FlightPhase so a
        future phase reordering cannot KeyError mid-flight.
        """
        return self._idle_output(position)

    # ------------------------------------------------------------------

    def _ground_dwell(self, time_s: float, on_ground: bool) -> bool:
        """True when the vehicle has stayed on the ground long enough."""
        if not on_ground:
            self._ground_since = None
            return False
        if self._ground_since is None:
            self._ground_since = time_s
        return time_s - self._ground_since >= DISARM_GROUND_TIME_S

    def _idle_output(self, position: np.ndarray) -> CommanderOutput:
        np.copyto(self._idle_pos, position)
        return CommanderOutput(
            position_sp_ned=self._idle_pos,
            velocity_ff_ned=self._zero3,
            yaw_sp_rad=self._yaw_hold,
            cruise_speed_m_s=0.0,
            thrust_idle=True,
        )
