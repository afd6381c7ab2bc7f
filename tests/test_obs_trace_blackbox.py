"""Unit tests for spans/events, the black-box ring, and the exporters."""

import json

import numpy as np
import pytest

from repro.obs.export import (
    chrome_trace_events,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    NULL_SINK,
    TraceCollector,
    TraceEvent,
    build_span_tree,
    iter_spans,
    render_span_tree,
)
from repro.telemetry.recorder import (
    COLUMNS,
    SCHEMA,
    FlightRecorder,
    load_recording,
    recording_column,
)
from tests.test_telemetry import fake_system


# ------------------------------------------------------------- collector


def test_spans_nest_and_close_in_order():
    tc = TraceCollector()
    outer = tc.begin_span("campaign", 0.0, workers=1)
    inner = tc.begin_span("case", 1.0)
    assert outer != inner
    tc.end_span(2.0)
    tc.end_span(3.0)
    kinds = [(e.kind, e.name) for e in tc.events]
    assert kinds == [
        ("B", "campaign"), ("B", "case"), ("E", "case"), ("E", "campaign"),
    ]
    begin_case = tc.events[1]
    assert begin_case.parent_id == outer


def test_end_span_without_open_raises():
    with pytest.raises(ValueError):
        TraceCollector().end_span(0.0)


def test_end_all_flushes_every_open_span():
    tc = TraceCollector()
    tc.begin_span("run", 0.0)
    tc.phase(1.0, "takeoff")
    tc.end_all(5.0)
    assert [e.kind for e in tc.events] == ["B", "B", "E", "E"]
    assert all(e.time_s == 5.0 for e in tc.events if e.kind == "E")


def test_phase_transitions_end_previous_phase():
    tc = TraceCollector()
    tc.begin_span("run", 0.0)
    tc.phase(1.0, "takeoff")
    tc.phase(4.0, "mission")
    tc.end_all(9.0)
    roots, _ = build_span_tree(tc.events)
    run = roots[0]
    assert [c.name for c in run.children] == ["phase:takeoff", "phase:mission"]
    assert run.children[0].end_s == 4.0  # closed when the next phase began
    assert run.children[1].end_s == 9.0


def test_points_attach_to_open_span_and_tap_fires():
    tapped = []
    tc = TraceCollector()
    tc.on_point = tapped.append
    tc.begin_span("run", 0.0)
    tc.emit("imu.switchover", 2.5, from_member=0, to_member=1)
    tc.end_all(3.0)
    tc.emit("orphan.note", 4.0)
    roots, orphans = build_span_tree(tc.events)
    assert [p.name for p in roots[0].points] == ["imu.switchover"]
    assert [o.name for o in orphans] == ["orphan.note"]
    assert [e.name for e in tapped] == ["imu.switchover", "orphan.note"]
    assert tc.points("imu.switchover")[0].attrs == {
        "from_member": 0, "to_member": 1,
    }


def test_observer_counts_point_events_by_name():
    obs = Observer(registry=MetricsRegistry())
    obs.trace.emit("failsafe.engaged", 12.5, trigger="attitude_excursion")
    obs.trace.emit("imu.switchover", 13.0, from_member=0, to_member=1)
    obs.trace.emit("imu.switchover", 14.0, from_member=1, to_member=2)
    assert obs.metrics.value("obs_events_total", event="failsafe.engaged") == 1.0
    assert obs.metrics.value("obs_events_total", event="imu.switchover") == 2.0


def test_null_sink_accepts_everything_silently():
    NULL_SINK.emit("anything", 0.0, detail=1)
    NULL_SINK.phase(0.0, "takeoff")


def test_render_span_tree_orders_timeline():
    tc = TraceCollector()
    tc.begin_span("run", 0.0, mission_id=3)
    tc.phase(0.5, "takeoff")
    tc.emit("injection.start", 1.0, fault="Gyro Fixed Value")
    tc.end_all(2.0)
    text = render_span_tree(*build_span_tree(tc.events))
    lines = text.splitlines()
    assert lines[0].startswith("run  0.00s +2.00s")
    assert "mission_id=3" in lines[0]
    # The phase span begins before the point event, so it renders first.
    assert lines[1].strip().startswith("phase:takeoff")
    assert "* injection.start @ 1.00s" in text


def test_iter_spans_depth_first():
    tc = TraceCollector()
    tc.begin_span("a", 0.0)
    tc.begin_span("b", 1.0)
    tc.end_span(2.0)
    tc.begin_span("c", 3.0)
    tc.end_all(4.0)
    roots, _ = build_span_tree(tc.events)
    assert [n.name for n in iter_spans(roots)] == ["a", "b", "c"]


def test_trace_event_dict_round_trip():
    event = TraceEvent("i", "x", 1.5, 7, 3, {"k": "v"})
    assert TraceEvent.from_dict(event.to_dict()) == event
    bare = TraceEvent("B", "run", 0.0, 1)
    assert TraceEvent.from_dict(bare.to_dict()) == bare


# ------------------------------------------------------------- black box


def _ring(seconds: float = 0.05) -> FlightRecorder:
    """A black box at 100 Hz: ``seconds=0.05`` keeps 5 rows."""
    return FlightRecorder(rate_hz=100.0, seconds=seconds)


def test_ring_wraparound_keeps_newest_rows_in_order():
    bb = _ring()
    for i in range(8):
        bb.record(fake_system(), float(i), fault_active=False)
    assert bb.capacity == 5
    assert len(bb) == 5
    assert bb.total_recorded == 8
    assert list(bb.column("time_s")) == [3.0, 4.0, 5.0, 6.0, 7.0]


def test_ring_partial_fill():
    bb = _ring(seconds=1.0)
    bb.record(fake_system(), 0.0, fault_active=True)
    assert len(bb) == 1
    assert bb.column("fault_active")[0] == 1.0


def test_blackbox_validation():
    with pytest.raises(ValueError):
        FlightRecorder(rate_hz=100.0, seconds=0.0)
    with pytest.raises(ValueError):
        FlightRecorder(rate_hz=-1.0, seconds=8.0)


def test_categorical_code_tables_are_first_sight():
    bb = _ring(seconds=0.1)
    bb.record(fake_system(phase="takeoff"), 0.0, False)
    bb.record(fake_system(phase="mission"), 1.0, False)
    bb.record(fake_system(phase="takeoff"), 2.0, False)
    payload = bb.to_payload()
    assert payload["phase_codes"] == {"takeoff": 0, "mission": 1}
    assert list(blackbox_payload_column(payload, "phase_code")) == [0.0, 1.0, 0.0]


def test_blackbox_sigma_is_the_filter_sigma_after_each_step():
    """A row's attitude sigma is the one the step read for its health
    check; nothing after that read touches the filter, so it is still
    the filter's sigma when the observer records (through a fault)."""
    from repro.obs.observer import Observer
    from repro.obs.registry import MetricsRegistry
    from repro.perf.fingerprint import GOLDEN_SPECS, build_pinned_system

    system = build_pinned_system(
        GOLDEN_SPECS["imu_random"].fault, obs=Observer(registry=MetricsRegistry())
    )
    for _ in range(700):  # through the fault's start at 4.0 s
        system.step()
        got = system.obs.blackbox.column("attitude_std_rad")[-1]
        assert got.tobytes() == np.float64(system.ekf.attitude_std_rad).tobytes()


def blackbox_payload_column(payload, name):
    rows = np.asarray(payload["rows"], dtype=float)
    return rows[:, payload["columns"].index(name)]


def test_dump_load_round_trip(tmp_path):
    bb = _ring()
    for i in range(3):
        bb.record(fake_system(), float(i), fault_active=(i == 1))
    events = [TraceEvent("i", "injection.start", 1.0).to_dict()]
    path = bb.dump(tmp_path / "sub" / "bb.json", metadata={"mission_id": 3},
                   events=events)
    payload = load_recording(path)
    assert payload["schema"] == SCHEMA
    assert payload["columns"] == list(COLUMNS)
    assert payload["metadata"] == {"mission_id": 3}
    assert payload["events"] == events
    assert payload["rows"].shape == (3, len(COLUMNS))
    assert payload["rows"].tobytes() == bb.rows().tobytes()
    assert list(recording_column(payload, "fault_active")) == [0.0, 1.0, 0.0]


def test_load_blackbox_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 999}))
    with pytest.raises(ValueError, match="schema"):
        load_recording(path)


def _wrapped_dump(tmp_path):
    """A dump of a 5-row ring that has recorded 8 rows, and its payload."""
    bb = _ring()
    for i in range(8):
        bb.record(fake_system(), float(i), fault_active=False)
    path = tmp_path / "bb.json"
    bb.dump(path)
    return path, json.loads(path.read_text())


def test_load_recording_rejects_a_row_of_the_wrong_width(tmp_path):
    path, payload = _wrapped_dump(tmp_path)
    # Width-1 rows whose values still total a multiple of the width:
    # a flat reshape would silently turn them into whole rows.
    width = len(COLUMNS)
    payload["rows"] = [[float(i)] * (width - 1) for i in range(width)]
    payload["total_recorded"] = payload["capacity"] = width
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"not {width} values wide"):
        load_recording(path)


def test_load_recording_rejects_a_row_count_off_the_header(tmp_path):
    path, payload = _wrapped_dump(tmp_path)
    assert len(load_recording(path)["rows"]) == 5  # min(total_recorded, capacity)
    for rows in (payload["rows"][:-1], payload["rows"] + payload["rows"][:1]):
        path.write_text(json.dumps({**payload, "rows": rows}))
        with pytest.raises(ValueError, match="header says"):
            load_recording(path)


# ------------------------------------------------------------- exporters


def _sample_events():
    tc = TraceCollector()
    tc.begin_span("run", 0.0, mission_id=3)
    tc.emit("injection.start", 1.0, fault="Gyro Min")
    tc.end_all(2.0)
    return tc.events


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    events = _sample_events()
    write_events_jsonl(events, path)
    assert read_events_jsonl(path) == events
    # One dict per line, stable key order.
    lines = path.read_text().splitlines()
    assert len(lines) == len(events)
    assert json.loads(lines[0])["kind"] == "B"


def test_jsonl_malformed_line_reports_location(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"kind": "i", "name": "x", "time_s": 0.0}\nnot json\n')
    with pytest.raises(ValueError, match=r"2: malformed"):
        read_events_jsonl(path)


def test_chrome_trace_mapping(tmp_path):
    events = _sample_events()
    records = chrome_trace_events(events, pid=7, tid=9)
    begin, instant, end = records
    assert begin == {
        "name": "run", "ph": "B", "ts": 0.0, "pid": 7, "tid": 9,
        "args": {"mission_id": 3},
    }
    assert instant["ph"] == "i"
    assert instant["s"] == "t"
    assert instant["ts"] == pytest.approx(1e6)
    assert end["ph"] == "E"
    path = tmp_path / "trace.json"
    write_chrome_trace(events, path)
    payload = json.loads(path.read_text())
    assert payload["displayTimeUnit"] == "ms"
    assert len(payload["traceEvents"]) == 3
