"""Tests for the extension modules: flight logs, detection latency and
the Valencia operating area."""

import json

import numpy as np
import pytest

from repro.missions import valencia_missions
from repro.telemetry import COLUMNS, FlightRecorder, load_recording, recording_column
from tests.test_telemetry import fake_system


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


# --------------------------------------------------------- Operating area


def test_valencia_missions_fit_operating_area():
    """Every scale-1.0 waypoint lies in the paper's zone: 25 km^2 (a 5 km
    square about the origin) under the 60 ft ceiling."""
    from repro.missions.valencia import CEILING_M

    for plan in valencia_missions(scale=1.0):
        for wp in plan.waypoints:
            north, east, down = wp.position_ned
            assert abs(north) <= 2500.0, (plan.mission_id, wp)
            assert abs(east) <= 2500.0, (plan.mission_id, wp)
            assert 0.0 <= -down <= CEILING_M, (plan.mission_id, wp)
