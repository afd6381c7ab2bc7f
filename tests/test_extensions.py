"""Tests for the extension modules: airspace, plan IO, flight logs,
detection latency."""

import json
import math

import numpy as np
import pytest

from repro.missions import valencia_missions
from repro.missions.plan_io import load_plans, plan_from_dict, plan_to_dict, save_plans
from repro.missions.valencia import VALENCIA_ORIGIN
from repro.mathutils import GeodeticReference
from repro.telemetry import COLUMNS, FlightRecorder, load_recording, recording_column
from repro.uspace.airspace import ContainmentMonitor, OperatingArea
from tests.test_telemetry import fake_system


# ---------------------------------------------------------------- Airspace


def test_area_defaults_match_paper_zone():
    area = OperatingArea()
    assert area.area_km2 == pytest.approx(25.0)
    assert area.ceiling_m == pytest.approx(18.29)


def test_area_contains():
    area = OperatingArea(half_extent_m=100.0, ceiling_m=20.0)
    assert area.contains(np.array([0.0, 0.0, -10.0]))
    assert area.contains(np.array([100.0, -100.0, -20.0]))  # boundary inclusive
    assert not area.contains(np.array([101.0, 0.0, -10.0]))
    assert not area.contains(np.array([0.0, 0.0, -25.0]))  # above ceiling
    assert not area.contains(np.array([0.0, 0.0, 5.0]))  # underground


def test_violation_distance():
    area = OperatingArea(half_extent_m=100.0, ceiling_m=20.0)
    assert area.violation_distance_m(np.array([0.0, 0.0, -10.0])) == 0.0
    assert area.violation_distance_m(np.array([103.0, 0.0, -10.0])) == pytest.approx(3.0)
    assert area.violation_distance_m(np.array([0.0, 0.0, -24.0])) == pytest.approx(4.0)
    # Corner excursion combines axes.
    d = area.violation_distance_m(np.array([103.0, 104.0, -10.0]))
    assert d == pytest.approx(5.0)


def test_area_validation():
    with pytest.raises(ValueError):
        OperatingArea(half_extent_m=0.0)
    with pytest.raises(ValueError):
        OperatingArea(ceiling_m=0.0, floor_m=0.0)


def test_containment_monitor_counts_episodes():
    monitor = ContainmentMonitor(OperatingArea(half_extent_m=10.0, ceiling_m=20.0))
    inside = np.array([0.0, 0.0, -10.0])
    outside = np.array([50.0, 0.0, -10.0])
    for pos in (inside, outside, outside, inside, outside, inside):
        monitor.check(pos)
    assert monitor.episodes == 2
    assert monitor.instants_outside == 3
    assert monitor.worst_excursion_m == pytest.approx(40.0)


def test_valencia_missions_fit_operating_area():
    area = OperatingArea()
    for plan in valencia_missions(scale=1.0):
        for wp in plan.waypoints:
            assert area.contains(wp.array), (plan.mission_id, wp)


# ----------------------------------------------------------------- Plan IO


def test_plan_round_trip_single():
    reference = GeodeticReference(VALENCIA_ORIGIN)
    plan = valencia_missions(scale=0.3)[6]
    restored = plan_from_dict(plan_to_dict(plan, reference), reference)
    assert restored.mission_id == plan.mission_id
    assert restored.drone == plan.drone
    assert restored.has_turns == plan.has_turns
    assert len(restored.waypoints) == len(plan.waypoints)
    for a, b in zip(restored.waypoints, plan.waypoints):
        assert np.allclose(a.array, b.array, atol=1e-3)
        assert a.acceptance_radius_m == b.acceptance_radius_m


def test_scenario_save_load(tmp_path):
    plans = valencia_missions(scale=0.3)
    path = tmp_path / "valencia.json"
    save_plans(plans, VALENCIA_ORIGIN, path)
    loaded, origin = load_plans(path)
    assert origin == VALENCIA_ORIGIN
    assert len(loaded) == 10
    for a, b in zip(loaded, plans):
        assert a.mission_id == b.mission_id
        assert math.isclose(a.cruise_length_m, b.cruise_length_m, rel_tol=1e-6)


def test_load_plans_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99}')
    with pytest.raises(ValueError):
        load_plans(path)


# ------------------------------------------------------------- Flight log


def _recorded():
    rec = FlightRecorder(rate_hz=1.0)
    for i in range(5):
        pos = np.array([float(i), 0.0, -15.0])
        rec.maybe_record(fake_system(est=pos + 0.1, truth=pos), float(i), i in (2, 3))
    return rec


def test_flight_log_round_trip(tmp_path):
    rec = _recorded()
    path = tmp_path / "flight.json"
    rec.dump(path, metadata={"mission_id": 4, "fault": "Acc Zeros"})
    payload = load_recording(path)
    assert payload["metadata"]["mission_id"] == 4
    assert payload["rows"].shape == (5, len(COLUMNS))
    assert payload["rows"].tobytes() == rec.rows().tobytes()
    assert payload["estimated_distance_m"] == rec.estimated_distance_m
    fault = recording_column(payload, "fault_active")
    assert fault[2] == 1.0 and fault[0] == 0.0
    assert recording_column(payload, "truth_pos_n")[1] == 1.0
    assert payload["phase_codes"] == {"mission": 0}


def test_flight_log_rejects_truncation(tmp_path):
    rec = _recorded()
    path = tmp_path / "flight.json"
    rec.dump(path)
    payload = json.loads(path.read_text())
    payload["rows"].pop()  # drop last row
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="header says"):
        load_recording(path)


def test_flight_log_rejects_non_log(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"type": "something"}\n')
    with pytest.raises(ValueError):
        load_recording(path)


# ---------------------------------------------------- Detection latency


def test_detection_latency_measured():
    from repro.core.detection import measure_detection, render_detection_report
    from repro.core.faults import FaultSpec, FaultTarget, FaultType

    plan = valencia_missions(scale=0.1)[3]
    fault = FaultSpec(FaultType.RANDOM, FaultTarget.GYRO, start_time_s=20.0, duration_s=30.0)
    record = measure_detection(plan, fault)
    assert record.detected
    # Detection needs at least the debounce window...
    assert record.detection_latency_s >= 0.3
    # ...and the failsafe (if it engaged) at least the isolation time
    # after that (the paper's >= 1900 ms observation).
    if record.failsafe_latency_s is not None:
        assert record.failsafe_latency_s >= record.detection_latency_s + 1.8

    report = render_detection_report([record], "detection")
    assert "Gyro Random" in report
