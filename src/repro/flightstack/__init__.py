"""Vehicle management — the PX4 commander/navigator/failsafe substitute.

This layer decides *what* the vehicle should be doing (taking off,
flying the mission, landing, executing a failsafe) while
:mod:`repro.control` decides *how*. The failsafe engine reproduces the
PX4 behaviour the paper measures: sensor-fault detection thresholds
(60 deg/s gyro default), a redundant-sensor isolation attempt taking a
minimum of 1900 ms, and an emergency-land failsafe action.
"""

from repro.flightstack.commander import Commander, FlightPhase, MissionOutcome
from repro.flightstack.navigator import Navigator, NavigatorOutput
from repro.flightstack.failsafe import (
    FailsafeEngine,
    FailsafeState,
    FailsafeTrigger,
    IsolationOutcome,
)
from repro.flightstack.crash import CrashDetector

__all__ = [
    "Commander",
    "FlightPhase",
    "MissionOutcome",
    "Navigator",
    "NavigatorOutput",
    "FailsafeEngine",
    "FailsafeState",
    "FailsafeTrigger",
    "IsolationOutcome",
    "CrashDetector",
]
