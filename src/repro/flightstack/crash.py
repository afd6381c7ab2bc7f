"""Crash detection from ground-truth contact events.

Classification (crash vs landing) is a property of how the vehicle met
the ground: impact speed, impact attitude, and whether the flight stack
was actually trying to land. The detector watches the physics engine's
contact records — it has ground truth, like the simulation operator
inspecting a Gazebo run in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.dynamics import GroundContact

#: Touchdown envelope. A landing is a crash above the landing speed or
#: tilt; any other ground contact is a crash above the touch speed or
#: the same tilt.
MAX_LANDING_SPEED_M_S = 2.2
MAX_LANDING_TILT_RAD = math.radians(25.0)
MAX_TOUCH_SPEED_OFF_LANDING_M_S = 0.8


@dataclass
class CrashReport:
    """Details of a detected crash."""

    time_s: float
    impact_speed_m_s: float
    tilt_deg: float
    reason: str


class CrashDetector:
    """Turns ground-contact events into crash verdicts."""

    def __init__(self) -> None:
        self.report: CrashReport | None = None
        self._last_seen_contact_time: float | None = None

    @property
    def crashed(self) -> bool:
        """True once any contact has been classified as a crash."""
        return self.report is not None

    def assess_contact(self, contact: GroundContact | None, landing_expected: bool) -> None:
        """Evaluate a (possibly new) contact event.

        Args:
            contact: the physics engine's most recent contact record.
            landing_expected: True when the stack is in a deliberate
                descent (normal landing or failsafe land).
        """
        if contact is None or self.crashed:
            return
        if self._last_seen_contact_time == contact.time_s:
            return  # already assessed this event
        self._last_seen_contact_time = contact.time_s

        tilt_deg = math.degrees(contact.tilt_rad)
        impact = abs(contact.vertical_speed_m_s)
        total = contact.impact_speed_m_s

        if landing_expected:
            if impact > MAX_LANDING_SPEED_M_S:
                self._record(contact, tilt_deg, "hard landing impact")
            elif contact.tilt_rad > MAX_LANDING_TILT_RAD:
                self._record(contact, tilt_deg, "tipped over on touchdown")
        else:
            if total > MAX_TOUCH_SPEED_OFF_LANDING_M_S:
                self._record(contact, tilt_deg, "uncontrolled ground impact")
            elif contact.tilt_rad > MAX_LANDING_TILT_RAD:
                self._record(contact, tilt_deg, "ground strike at extreme attitude")

    def _record(self, contact: GroundContact, tilt_deg: float, reason: str) -> None:
        self.report = CrashReport(
            time_s=contact.time_s,
            impact_speed_m_s=contact.impact_speed_m_s,
            tilt_deg=tilt_deg,
            reason=reason,
        )
