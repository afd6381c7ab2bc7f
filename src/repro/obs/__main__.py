"""``python -m repro.obs`` — inspect traces and flight recordings.

Three subcommands:

* ``summarize <file>`` — print the span tree, point-event counts, and
  (for a black box) the run metadata. Accepts a JSONL event log or a
  black-box dump; black boxes embed their run's trace events, so one
  artifact answers both "what happened" and "when".
* ``diff <a> <b>`` — compare two traces: event-count deltas per name
  and per-span duration deltas. The tool for "what changed between the
  baseline crash and the mitigated rescue".
* ``render <recording>`` — draw the recorded trajectory of a black box
  or a flight log in the paper's Figure 3-5 style: a top-down
  north/east plot plus an altitude strip, with the fault-injection
  window marked.

Black boxes and flight logs share one dump format
(:meth:`repro.telemetry.recorder.FlightRecorder.dump`), read back by
:func:`repro.telemetry.recorder.load_recording`.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs.canvas import AsciiCanvas
from repro.obs.export import read_events_jsonl
from repro.obs.trace import TraceEvent, build_span_tree, iter_spans, render_span_tree
from repro.telemetry.recorder import load_recording, recording_column


def _load_events(path: Path) -> tuple[list[TraceEvent], dict[str, Any] | None]:
    """Events from a JSONL log or a recorder dump (plus its metadata)."""
    if path.suffix == ".jsonl":
        return read_events_jsonl(path), None
    payload = load_recording(path)
    events = [TraceEvent.from_dict(d) for d in payload.get("events", [])]
    return events, payload["metadata"]


# ---------------------------------------------------------------------------
# summarize


def cmd_summarize(args: argparse.Namespace) -> int:
    path = Path(args.file)
    events, metadata = _load_events(path)
    if metadata:
        print("run metadata:")
        for key in sorted(metadata):
            print(f"  {key}: {metadata[key]}")
        print()
    roots, orphans = build_span_tree(events)
    if roots or orphans:
        print("span tree:")
        print(render_span_tree(roots, orphans))
        print()
    tally = TallyCounter(e.name for e in events if e.kind == "i")
    if tally:
        print("point events:")
        for name, count in sorted(tally.items()):
            print(f"  {count:5d}  {name}")
    if not events:
        print("(no trace events)")
    return 0


# ---------------------------------------------------------------------------
# diff


def _span_durations(events: list[TraceEvent]) -> dict[str, float]:
    """Total duration per span name (closed spans only)."""
    roots, _ = build_span_tree(events)
    durations: dict[str, float] = {}
    for node in iter_spans(roots):
        if node.duration_s is not None:
            durations[node.name] = durations.get(node.name, 0.0) + node.duration_s
    return durations


def cmd_diff(args: argparse.Namespace) -> int:
    events_a, _ = _load_events(Path(args.a))
    events_b, _ = _load_events(Path(args.b))
    tally_a = TallyCounter(e.name for e in events_a if e.kind == "i")
    tally_b = TallyCounter(e.name for e in events_b if e.kind == "i")
    names = sorted(set(tally_a) | set(tally_b))
    print(f"point events ({args.a} vs {args.b}):")
    if not names:
        print("  (none in either trace)")
    for name in names:
        a, b = tally_a.get(name, 0), tally_b.get(name, 0)
        marker = "  " if a == b else ("+ " if b > a else "- ")
        print(f"  {marker}{name}: {a} -> {b}")
    dur_a = _span_durations(events_a)
    dur_b = _span_durations(events_b)
    span_names = sorted(set(dur_a) | set(dur_b))
    if span_names:
        print("span durations (s):")
        for name in span_names:
            a_s = dur_a.get(name)
            b_s = dur_b.get(name)
            a_txt = f"{a_s:.2f}" if a_s is not None else "-"
            b_txt = f"{b_s:.2f}" if b_s is not None else "-"
            delta = f" ({b_s - a_s:+.2f})" if a_s is not None and b_s is not None else ""
            print(f"  {name}: {a_txt} -> {b_txt}{delta}")
    return 0


# ---------------------------------------------------------------------------
# render


def _render_topdown(
    north: np.ndarray,
    east: np.ndarray,
    fault_active: np.ndarray,
    width: int,
    height: int,
) -> str:
    """Figure 3-5 style top-down plot: flown ``*``, injected ``#``,
    end ``X`` (same glyphs as :mod:`repro.core.figures`)."""
    canvas = AsciiCanvas(east, north, width, height)
    for n, e, faulted in zip(north, east, fault_active):
        canvas.plot(e, n, "#" if faulted else "*")
    canvas.plot(east[-1], north[-1], "X")
    return canvas.render()


def _render_altitude(
    times: np.ndarray,
    altitude: np.ndarray,
    fault_active: np.ndarray,
    width: int,
    height: int,
) -> str:
    """Altitude-vs-time strip chart with the injection window marked."""
    canvas = AsciiCanvas(times, altitude, width, height)
    for t, a, faulted in zip(times, altitude, fault_active):
        canvas.plot(t, a, "#" if faulted else "*")
    return (
        f"{canvas.render()}\n"
        f"t: {canvas.lo_x:.1f}s .. {canvas.hi_x:.1f}s   "
        f"alt: {canvas.lo_y:.1f}m .. {canvas.hi_y:.1f}m"
    )


def cmd_render(args: argparse.Namespace) -> int:
    payload = load_recording(Path(args.file))
    if payload["rows"].shape[0] == 0:
        print("(recording is empty)")
        return 1
    times = recording_column(payload, "time_s")
    north = recording_column(payload, "truth_pos_n")
    east = recording_column(payload, "truth_pos_e")
    down = recording_column(payload, "truth_pos_d")
    fault_active = recording_column(payload, "fault_active") > 0.5
    metadata = payload["metadata"]
    header = ", ".join(f"{k}={metadata[k]}" for k in sorted(metadata))
    if header:
        print(header)
    print(f"{times[-1] - times[0]:.1f}s of flight "
          f"({payload['rows'].shape[0]} rows recorded)")
    print()
    print("top-down (north up, east right; flown '*', injected '#', end 'X'):")
    print(_render_topdown(north, east, fault_active, args.width, args.height))
    print()
    print("altitude (m above origin):")
    print(_render_altitude(times, -down, fault_active, args.width, args.height // 2))
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect repro.obs traces, black boxes and flight logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="print span tree and event counts")
    p_sum.add_argument("file", help="JSONL event log or recorder dump")
    p_sum.set_defaults(func=cmd_summarize)

    p_diff = sub.add_parser("diff", help="compare two traces")
    p_diff.add_argument("a", help="baseline trace (JSONL or black box)")
    p_diff.add_argument("b", help="comparison trace (JSONL or black box)")
    p_diff.set_defaults(func=cmd_diff)

    p_render = sub.add_parser(
        "render", help="draw a recording as Figure 3-5 style ASCII plots"
    )
    p_render.add_argument("file", help="black-box or flight-log dump")
    p_render.add_argument("--width", type=int, default=72)
    p_render.add_argument("--height", type=int, default=24)
    p_render.set_defaults(func=cmd_render)

    args = parser.parse_args(argv)
    try:
        result: int = args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return result


if __name__ == "__main__":
    sys.exit(main())
