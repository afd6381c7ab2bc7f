"""Exporters: JSONL event logs, Prometheus text, Chrome trace JSON.

Three consumers, three formats, all written through the repo's atomic
writer (reprolint IO001) so a kill mid-export never tears an artifact:

* **JSONL** — one :class:`~repro.obs.trace.TraceEvent` dict per line;
  the format ``python -m repro.obs summarize`` and ``diff`` read, and
  the natural thing to ship to a log pipeline.
* **Prometheus text exposition** — a point-in-time snapshot of a
  :class:`~repro.obs.registry.MetricsRegistry`, written as a file
  (endpoint-file pattern: a node-exporter textfile collector or a
  test can scrape it without this process serving HTTP).
* **Chrome ``trace_event`` JSON** — load in ``chrome://tracing`` or
  Perfetto; spans become duration slices, point events instants.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterable

from repro.core.atomicio import atomic_write_text
from repro.obs.registry import Family, Histogram, MetricsRegistry
from repro.obs.trace import TraceEvent

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


# ---------------------------------------------------------------------------
# JSONL event log


def write_events_jsonl(
    events: Iterable[TraceEvent], path: str | Path
) -> None:
    """One event dict per line, in emission order."""
    lines = [json.dumps(e.to_dict(), sort_keys=True) for e in events]
    atomic_write_text(Path(path), "\n".join(lines) + ("\n" if lines else ""))


def read_events_jsonl(path: str | Path) -> list[TraceEvent]:
    """Inverse of :func:`write_events_jsonl` (blank lines tolerated)."""
    events: list[TraceEvent] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed trace event: {exc}") from exc
    return events


# ---------------------------------------------------------------------------
# Prometheus text exposition


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _labels_str(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _render_family(family: Family) -> list[str]:
    if not _METRIC_NAME_RE.match(family.name):
        raise ValueError(f"invalid Prometheus metric name: {family.name!r}")
    lines = []
    if family.help:
        lines.append(f"# HELP {family.name} {family.help}")
    lines.append(f"# TYPE {family.name} {family.kind}")
    for values, child in family.samples():
        labels = _labels_str(family.label_names, values)
        if isinstance(child, Histogram):
            cumulative = 0
            for bound, count in zip(child.bucket_bounds, child.bucket_counts):
                cumulative = count  # bucket_counts are already cumulative
                le = _labels_str(family.label_names, values, f'le="{bound:g}"')
                lines.append(f"{family.name}_bucket{le} {cumulative}")
            inf = _labels_str(family.label_names, values, 'le="+Inf"')
            lines.append(f"{family.name}_bucket{inf} {child.count}")
            lines.append(f"{family.name}_sum{labels} {child.total:g}")
            lines.append(f"{family.name}_count{labels} {child.count}")
        else:
            lines.append(f"{family.name}{labels} {child.value:g}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition format (v0.0.4)."""
    lines: list[str] = []
    for family in registry.families():
        lines.extend(_render_family(family))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> None:
    atomic_write_text(Path(path), render_prometheus(registry))


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal exposition parser: ``name{labels}`` -> value.

    Good enough for the CI smoke check and tests; not a full client.
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value = line.rsplit(" ", 1)
            out[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed sample {line!r}") from exc
    return out


# ---------------------------------------------------------------------------
# Chrome trace_event JSON


def chrome_trace_events(
    events: Iterable[TraceEvent], pid: int = 1, tid: int = 1
) -> list[dict[str, Any]]:
    """Map our events onto the Chrome ``trace_event`` array format."""
    out: list[dict[str, Any]] = []
    for event in events:
        record: dict[str, Any] = {
            "name": event.name,
            "ph": event.kind,
            "ts": event.time_s * 1e6,  # microseconds
            "pid": pid,
            "tid": tid,
        }
        if event.attrs:
            record["args"] = event.attrs
        if event.kind == "i":
            record["s"] = "t"  # thread-scoped instant
        out.append(record)
    return out


def write_chrome_trace(
    events: Iterable[TraceEvent], path: str | Path, pid: int = 1, tid: int = 1
) -> None:
    payload = {
        "traceEvents": chrome_trace_events(events, pid=pid, tid=tid),
        "displayTimeUnit": "ms",
    }
    atomic_write_text(Path(path), json.dumps(payload) + "\n")
