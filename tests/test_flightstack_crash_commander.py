"""Unit tests for the crash detector and the commander phase machine."""

import math

import numpy as np
import pytest

from repro.flightstack import Commander, CrashDetector, FlightPhase, MissionOutcome
from repro.flightstack.commander import MISSION_TIMEOUT_FACTOR, MISSION_TIMEOUT_MIN_S
from repro.missions import MissionPlan, Waypoint
from repro.missions.spec import DroneSpec
from repro.sim.dynamics import GroundContact


def contact(speed=1.0, vertical=1.0, tilt_deg=5.0, t=10.0):
    return GroundContact(
        time_s=t,
        impact_speed_m_s=speed,
        vertical_speed_m_s=vertical,
        tilt_rad=math.radians(tilt_deg),
    )


# ------------------------------------------------------------ CrashDetector


def test_soft_landing_not_a_crash():
    det = CrashDetector()
    det.assess_contact(contact(speed=0.8, vertical=0.8), landing_expected=True)
    assert not det.crashed


def test_hard_landing_is_a_crash():
    det = CrashDetector()
    det.assess_contact(contact(speed=5.0, vertical=5.0), landing_expected=True)
    assert det.crashed
    assert det.report.reason == "hard landing impact"


def test_tipped_landing_is_a_crash():
    det = CrashDetector()
    det.assess_contact(contact(speed=1.0, vertical=1.0, tilt_deg=40.0), landing_expected=True)
    assert det.crashed


def test_unexpected_ground_contact_is_a_crash():
    det = CrashDetector()
    det.assess_contact(contact(speed=2.0, vertical=1.5), landing_expected=False)
    assert det.crashed
    assert det.report.reason == "uncontrolled ground impact"


def test_same_contact_not_reassessed():
    det = CrashDetector()
    touch = contact(speed=0.5, vertical=0.5)
    det.assess_contact(touch, landing_expected=True)
    # Same event later under different expectations: still not a crash.
    det.assess_contact(touch, landing_expected=False)
    assert not det.crashed


def test_none_contact_ignored():
    det = CrashDetector()
    det.assess_contact(None, landing_expected=False)
    assert not det.crashed


def test_first_crash_latches():
    det = CrashDetector()
    det.assess_contact(contact(speed=9.0, vertical=9.0, t=5.0), landing_expected=False)
    first = det.report
    det.assess_contact(contact(speed=20.0, vertical=20.0, t=6.0), landing_expected=False)
    assert det.report is first


# --------------------------------------------------------------- Commander


def make_plan():
    drone = DroneSpec(1, "UAV-01", cruise_speed_m_s=4.0, top_speed_m_s=6.0, mass_kg=1.5)
    return MissionPlan(
        mission_id=1,
        drone=drone,
        waypoints=[Waypoint((0.0, 0.0, -15.0)), Waypoint((50.0, 0.0, -15.0))],
    )


def test_commander_initial_phase():
    cmd = Commander(make_plan())
    assert cmd.phase == FlightPhase.PREFLIGHT
    assert not cmd.terminal


def test_takeoff_requires_preflight():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    with pytest.raises(RuntimeError):
        cmd.arm_and_takeoff(1.0)


def test_takeoff_output_climbs():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    out = cmd.update(0.1, np.zeros(3), on_ground=True, failsafe_engaged=False, crashed=False)
    assert out.position_sp_ned[2] == -15.0
    assert out.velocity_ff_ned[2] < 0.0


def test_takeoff_transitions_to_mission_at_altitude():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    cmd.update(5.0, np.array([0.0, 0.0, -15.0]), False, False, False)
    assert cmd.phase == FlightPhase.MISSION


def test_mission_to_landing_to_completed():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    cmd.update(5.0, np.array([0.0, 0.0, -15.0]), False, False, False)
    cmd.update(20.0, np.array([50.0, 0.0, -15.0]), False, False, False)
    assert cmd.phase == FlightPhase.LANDING
    # Dwell on the ground long enough to disarm.
    cmd.update(30.0, np.array([50.0, 0.0, 0.0]), True, False, False)
    cmd.update(32.0, np.array([50.0, 0.0, 0.0]), True, False, False)
    assert cmd.outcome == MissionOutcome.COMPLETED


def test_crash_is_terminal():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    cmd.update(5.0, np.zeros(3), False, False, crashed=True)
    assert cmd.outcome == MissionOutcome.CRASHED
    assert cmd.terminal


def test_failsafe_routes_to_emergency_land():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    cmd.update(5.0, np.array([10.0, 0.0, -15.0]), False, failsafe_engaged=True, crashed=False)
    assert cmd.phase == FlightPhase.FAILSAFE_LAND
    # Emergency landing completes -> FAILSAFE verdict, not COMPLETED.
    cmd.update(30.0, np.array([10.0, 0.0, 0.0]), True, True, False)
    cmd.update(32.0, np.array([10.0, 0.0, 0.0]), True, True, False)
    assert cmd.outcome == MissionOutcome.FAILSAFE


def test_crash_during_failsafe_keeps_failsafe_verdict():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    cmd.update(5.0, np.array([10.0, 0.0, -15.0]), False, True, False)
    assert cmd.phase == FlightPhase.FAILSAFE_LAND
    cmd.update(6.0, np.array([10.0, 0.0, -5.0]), False, True, crashed=True)
    assert cmd.outcome == MissionOutcome.FAILSAFE


def test_timeout_verdict():
    plan = make_plan()
    timeout_s = max(MISSION_TIMEOUT_MIN_S, plan.estimated_duration_s() * MISSION_TIMEOUT_FACTOR)
    cmd = Commander(plan)
    cmd.arm_and_takeoff(0.0)
    cmd.update(timeout_s - 1.0, np.zeros(3), False, False, False)
    assert cmd.outcome is None
    cmd.update(timeout_s + 1.0, np.zeros(3), False, False, False)
    assert cmd.outcome == MissionOutcome.TIMEOUT


def test_yaw_hold_faces_first_leg():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    out = cmd.update(0.1, np.zeros(3), True, False, False)
    assert abs(out.yaw_sp_rad) < 1e-6  # first leg due north


def test_idle_output_when_terminal():
    cmd = Commander(make_plan())
    cmd.arm_and_takeoff(0.0)
    cmd.update(5.0, np.zeros(3), False, False, crashed=True)
    out = cmd.update(6.0, np.array([1.0, 2.0, -3.0]), False, False, True)
    assert out.thrust_idle
