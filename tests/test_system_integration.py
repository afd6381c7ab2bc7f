"""Integration tests: full missions through the complete stack.

These run the real 100 Hz loop, so they use small-scale missions to keep
the suite fast. Scale only shrinks geometry; every code path (takeoff,
cruise, turns, landing, fault windows, failsafe, crash handling) is the
same as at paper scale.
"""

import pytest

from repro import (
    FaultSpec,
    FaultTarget,
    FaultType,
    MissionOutcome,
    SystemConfig,
    UavSystem,
    valencia_missions,
)

SCALE = 0.1


@pytest.fixture(scope="module")
def plans():
    return {p.mission_id: p for p in valencia_missions(scale=SCALE)}


@pytest.fixture(scope="module")
def gold_result(plans):
    return UavSystem(plans[4]).run()


def test_gold_mission_completes(gold_result):
    assert gold_result.outcome == MissionOutcome.COMPLETED


def test_gold_mission_zero_violations(gold_result):
    """The paper's baseline: gold runs never violate their bubbles."""
    assert gold_result.inner_violations == 0
    assert gold_result.outer_violations == 0


def test_gold_mission_metrics_sane(gold_result, plans):
    plan = plans[4]
    assert gold_result.flight_duration_s > 20.0
    # EKF-estimated distance close to the route length (within 35%:
    # the estimate integrates noise and vertical legs).
    assert gold_result.distance_km * 1000.0 > plan.cruise_length_m * 0.8
    assert gold_result.crash_time_s is None
    assert gold_result.failsafe_time_s is None
    assert gold_result.fault_label == "Gold Run"


def test_violent_fault_fails_mission(plans):
    fault = FaultSpec(FaultType.MIN, FaultTarget.IMU, start_time_s=20.0, duration_s=5.0)
    result = UavSystem(plans[4], fault=fault).run()
    assert result.outcome != MissionOutcome.COMPLETED


def test_gyro_random_triggers_failsafe_or_crash(plans):
    fault = FaultSpec(FaultType.RANDOM, FaultTarget.GYRO, start_time_s=20.0, duration_s=30.0)
    result = UavSystem(plans[4], fault=fault).run()
    assert result.outcome in (MissionOutcome.FAILSAFE, MissionOutcome.CRASHED)


def test_mild_accel_fault_survivable_with_violations(plans):
    fault = FaultSpec(FaultType.ZEROS, FaultTarget.ACCEL, start_time_s=20.0, duration_s=10.0)
    result = UavSystem(plans[4], fault=fault).run()
    assert result.inner_violations > 0  # the deviation is visible to U-space


def test_determinism_same_seed(plans):
    fault = FaultSpec(FaultType.RANDOM, FaultTarget.IMU, 20.0, 5.0, seed=11)
    a = UavSystem(plans[2], config=SystemConfig(seed=1), fault=fault).run()
    b = UavSystem(plans[2], config=SystemConfig(seed=1), fault=fault).run()
    assert a.outcome == b.outcome
    assert a.flight_duration_s == b.flight_duration_s
    assert a.inner_violations == b.inner_violations
    assert a.distance_km == b.distance_km


def test_recorder_captures_fault_window(plans):
    fault = FaultSpec(FaultType.NOISE, FaultTarget.ACCEL, start_time_s=20.0, duration_s=10.0)
    system = UavSystem(plans[4], fault=fault)
    system.run()
    flags = system.recorder.column("fault_active") > 0.5
    assert flags.any()
    assert not flags[0]  # clean at takeoff


def test_run_respects_max_time(plans):
    system = UavSystem(plans[4])
    result = system.run(max_time_s=5.0)
    assert result.outcome == MissionOutcome.TIMEOUT
    assert result.flight_duration_s <= 6.0


def test_tracking_instances_about_one_hz(plans, gold_result):
    assert gold_result.tracking_instances == pytest.approx(
        gold_result.flight_duration_s, rel=0.15
    )
