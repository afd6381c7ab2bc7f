"""Failure detection and failsafe sequencing.

Reproduces the PX4 behaviour the paper reports in Section IV-C:

* a gyro-rate failure-detection threshold (default 60 deg/s, the value
  the paper quotes as PX4's default, configurable);
* attitude failure detection on the estimated tilt;
* EKF aiding health (sustained innovation rejections), which is how
  accelerometer corruption becomes visible — PX4 defines no direct
  accelerometer threshold, as the paper notes;
* an isolation stage: the stack first deactivates the primary sensor
  and tries redundant ones. In the paper's campaigns the fault affects
  all redundant sensors, so isolation cannot succeed and the failsafe
  proper engages after a minimum of 1900 ms.

The engine is a small state machine: ``NOMINAL -> ISOLATING ->
ENGAGED``, returning to ``NOMINAL`` only if the triggering condition
clears completely during isolation (short injections sometimes recover
this way, matching the paper's high crash share at 2 s durations).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.estimation.health import EstimatorHealth
from repro.flightstack.params import FD_GYRO_RATE_THRESHOLD_RAD_S, FS_ISOLATION_TIME_S
from repro.obs.trace import NULL_SINK, EventSink

#: Attitude failure detection on the estimated tilt (PX4 ``FD_FAIL_*``).
FD_TILT_THRESHOLD_RAD = math.radians(70.0)
#: How long a detection condition must hold before isolation starts.
FD_TRIGGER_TIME_S = 0.50


class FailsafeState(enum.Enum):
    """Failsafe engine states."""

    NOMINAL = "nominal"
    ISOLATING = "isolating"
    ENGAGED = "engaged"


class FailsafeTrigger(enum.Enum):
    """What tripped failure detection first."""

    NONE = "none"
    GYRO_RATE = "gyro_rate"
    ATTITUDE = "attitude"
    EKF_HEALTH = "ekf_health"


class IsolationOutcome(enum.Enum):
    """What the redundant-sensor isolation stage actually did.

    Until this PR isolation was a pure timer (the paper's campaigns
    corrupt every redundant sensor, so it could never succeed); with a
    redundant IMU bank the vehicle now reports what happened.
    """

    NOT_ATTEMPTED = "not_attempted"
    SWITCHED = "switched"
    EXHAUSTED = "exhausted"


@dataclass(slots=True)
class FailsafeStatus:
    """Snapshot of the engine for logging and outcome classification."""

    state: FailsafeState
    trigger: FailsafeTrigger
    engaged_time_s: float | None
    isolation_outcome: IsolationOutcome = IsolationOutcome.NOT_ATTEMPTED
    isolation_succeeded: bool | None = None


class FailsafeEngine:
    """Monitors sensor/estimator health and engages the failsafe."""

    def __init__(
        self,
        fd_gyro_rate_threshold_rad_s: float = FD_GYRO_RATE_THRESHOLD_RAD_S,
        fs_isolation_time_s: float = FS_ISOLATION_TIME_S,
    ):
        self.fd_gyro_rate_threshold_rad_s = fd_gyro_rate_threshold_rad_s
        self.fs_isolation_time_s = fs_isolation_time_s
        #: Trace sink for state transitions; a no-op without an observer.
        self.obs: EventSink = NULL_SINK
        self.state = FailsafeState.NOMINAL
        self.trigger = FailsafeTrigger.NONE
        self.engaged_time_s: float | None = None
        #: What redundancy did during the latest isolation episode.
        self.isolation_outcome = IsolationOutcome.NOT_ATTEMPTED
        #: ``None`` until an isolation episode resolves; then True when
        #: it returned the vehicle to NOMINAL, False when it ENGAGED.
        self.isolation_succeeded: bool | None = None
        self._condition_active_since: float | None = None
        self._isolation_started_at: float | None = None
        self._condition_clear_since: float | None = None

    @property
    def engaged(self) -> bool:
        """True once the failsafe action (emergency land) is active."""
        return self.state == FailsafeState.ENGAGED

    def status(self) -> FailsafeStatus:
        return FailsafeStatus(
            self.state,
            self.trigger,
            self.engaged_time_s,
            self.isolation_outcome,
            self.isolation_succeeded,
        )

    def report_isolation(self, time_s: float, outcome: IsolationOutcome) -> None:
        """Record what the redundancy manager did while ISOLATING.

        A successful switchover restarts the isolation window: the
        debounced condition was measured against the retired sensor,
        and the new primary deserves the full isolation budget to prove
        itself before the failsafe proper may engage. Reports outside
        the ISOLATING stage are ignored (no switchover can happen
        outside it).
        """
        if self.state != FailsafeState.ISOLATING:
            return
        if outcome is not self.isolation_outcome:
            self.obs.emit("failsafe.isolation_report", time_s, outcome=outcome.value)
        self.isolation_outcome = outcome
        if outcome is IsolationOutcome.SWITCHED:
            self._isolation_started_at = time_s

    def update(
        self,
        time_s: float,
        gyro_rate_rad_s: np.ndarray,
        estimated_tilt_rad: float,
        estimator_health: EstimatorHealth,
        in_flight: bool,
    ) -> None:
        """Advance the failure-detection state machine one cycle."""
        if self.state == FailsafeState.ENGAGED or not in_flight:
            return

        trigger = self._detect(gyro_rate_rad_s, estimated_tilt_rad, estimator_health)

        if self.state == FailsafeState.NOMINAL:
            if trigger != FailsafeTrigger.NONE:
                if self._condition_active_since is None:
                    self._condition_active_since = time_s
                    self.trigger = trigger
                elif time_s - self._condition_active_since >= FD_TRIGGER_TIME_S:
                    # Debounced: start the redundant-sensor isolation stage.
                    self.state = FailsafeState.ISOLATING
                    self._isolation_started_at = time_s
                    self._condition_clear_since = None
                    self.isolation_outcome = IsolationOutcome.NOT_ATTEMPTED
                    self.isolation_succeeded = None
                    self.obs.emit(
                        "failsafe.isolating", time_s, trigger=self.trigger.value
                    )
            else:
                self._condition_active_since = None
                self.trigger = FailsafeTrigger.NONE
            return

        # ISOLATING: waiting out the redundancy attempt.
        if trigger == FailsafeTrigger.NONE:
            if self._condition_clear_since is None:
                self._condition_clear_since = time_s
            elif time_s - self._condition_clear_since > 1.0:
                # The condition cleared and stayed clear: isolation
                # succeeded (switchover worked, or the fault ended on
                # its own); back to nominal flight.
                self.state = FailsafeState.NOMINAL
                self.trigger = FailsafeTrigger.NONE
                self.isolation_succeeded = True
                self._condition_active_since = None
                self._isolation_started_at = None
                self.obs.emit(
                    "failsafe.recovered",
                    time_s,
                    isolation=self.isolation_outcome.value,
                )
                return
        else:
            self._condition_clear_since = None

        assert self._isolation_started_at is not None
        elapsed = time_s - self._isolation_started_at
        if elapsed >= self.fs_isolation_time_s and trigger != FailsafeTrigger.NONE:
            self.state = FailsafeState.ENGAGED
            self.engaged_time_s = time_s
            self.isolation_succeeded = False
            self.obs.emit(
                "failsafe.engaged",
                time_s,
                trigger=self.trigger.value,
                isolation=self.isolation_outcome.value,
            )

    def _detect(
        self,
        gyro_rate_rad_s: np.ndarray,
        estimated_tilt_rad: float,
        estimator_health: EstimatorHealth,
    ) -> FailsafeTrigger:
        """Evaluate the instantaneous failure-detection conditions."""
        rate_norm = math.sqrt(float(gyro_rate_rad_s.dot(gyro_rate_rad_s)))
        if rate_norm > self.fd_gyro_rate_threshold_rad_s:
            return FailsafeTrigger.GYRO_RATE
        if estimated_tilt_rad > FD_TILT_THRESHOLD_RAD:
            return FailsafeTrigger.ATTITUDE
        if estimator_health.degraded:
            return FailsafeTrigger.EKF_HEALTH
        return FailsafeTrigger.NONE
