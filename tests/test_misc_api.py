"""Fast API-surface tests: config validation, rendering helpers, exports."""

import numpy as np

import repro
from repro.core.ablations import AblationPoint, render_ablation
from repro.core.faults import FaultTarget, FaultType
from repro.core.figures import FIGURE_3, FigureResult, render_ascii_trajectory
from repro.flightstack.commander import MissionOutcome
from repro.system import MissionResult


def test_public_api_exports_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_mission_result_completed_property():
    kwargs = dict(
        mission_id=1,
        flight_duration_s=10.0,
        distance_km=0.1,
        inner_violations=0,
        outer_violations=0,
        tracking_instances=10,
        max_deviation_m=0.5,
        crash_time_s=None,
        failsafe_time_s=None,
        fault_label="Gold Run",
    )
    ok = MissionResult(outcome=MissionOutcome.COMPLETED, **kwargs)
    bad = MissionResult(outcome=MissionOutcome.CRASHED, **kwargs)
    assert ok.completed and not bad.completed


def test_render_ablation_format():
    points = [
        AblationPoint("fs_isolation_time_s", 0.5, 4, 25.0, 50.0, 25.0, 3.0, 1.0),
        AblationPoint("fs_isolation_time_s", 1.9, 4, 25.0, 25.0, 50.0, 3.0, 1.0),
    ]
    text = render_ablation(points, "sweep")
    assert "sweep" in text
    assert "0.5" in text and "1.9" in text
    assert text.count("%") >= 6


def test_render_ascii_trajectory_empty():
    result = FigureResult(
        scenario=FIGURE_3,
        outcome=MissionOutcome.CRASHED,
        route_ned=np.zeros((2, 3)),
        flown_true_ned=np.zeros((0, 3)),
        flown_est_ned=np.zeros((0, 3)),
        times_s=np.zeros(0),
        injection_start_s=10.0,
        injection_end_s=40.0,
        flight_duration_s=0.0,
    )
    assert "no trajectory" in render_ascii_trajectory(result)


def test_render_ascii_trajectory_marks():
    route = np.array([[0.0, 0.0, -15.0], [100.0, 0.0, -15.0]])
    flown = np.array([[float(i * 10), 1.0, -15.0] for i in range(10)])
    times = np.linspace(0.0, 90.0, 10)
    result = FigureResult(
        scenario=FIGURE_3,
        outcome=MissionOutcome.FAILSAFE,
        route_ned=route,
        flown_true_ned=flown,
        flown_est_ned=flown,
        times_s=times,
        injection_start_s=30.0,
        injection_end_s=60.0,
        flight_duration_s=90.0,
    )
    art = render_ascii_trajectory(result)
    assert "#" in art  # injected span marked
    assert "X" in art  # end point
    assert "failsafe" in art


def test_fault_type_and_target_enums_complete():
    assert {t.value for t in FaultType} == {
        "fixed", "zeros", "freeze", "random", "min", "max", "noise",
    }
    assert {t.value for t in FaultTarget} == {"accel", "gyro", "imu"}


def test_version_string():
    assert repro.__version__.count(".") == 2
