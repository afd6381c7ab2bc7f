"""Structured spans and point events: the tracing side of ``repro.obs``.

The data model is deliberately tiny — a flat, append-only list of
:class:`TraceEvent` records with three kinds:

* ``"B"`` / ``"E"`` — begin/end of a *span* (campaign, case, run,
  flight phase), matched by ``span_id`` and nested via ``parent_id``;
* ``"i"`` — an instant *point event* (injection start/stop, failsafe
  transition, IMU switchover, bubble violation, harness error).

The letters are the Chrome ``trace_event`` phase codes, so the export
to ``chrome://tracing`` / Perfetto in :mod:`repro.obs.export` is a
field-for-field mapping.

Instrumented modules (commander, failsafe engine, redundancy manager)
do not know about span bookkeeping: they hold an :class:`EventSink`
attribute — :data:`NULL_SINK` by default, a :class:`TraceCollector`
when observability is on — and call ``emit``/``phase`` at their
transition points. Timestamps are always *passed in* by the caller
(simulated seconds inside the vehicle, campaign-relative wall seconds
in the harness); the collector itself never reads a clock, which keeps
traces of a deterministic run deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class TraceEvent:
    """One trace record (span begin/end or instant event)."""

    kind: str  # "B" (span begin) | "E" (span end) | "i" (instant)
    name: str
    time_s: float
    span_id: int = 0
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "time_s": self.time_s,
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "TraceEvent":
        return TraceEvent(
            kind=data["kind"],
            name=data["name"],
            time_s=data["time_s"],
            span_id=data.get("span_id", 0),
            parent_id=data.get("parent_id"),
            attrs=data.get("attrs", {}),
        )


class EventSink:
    """The no-op base every instrumented module holds by default.

    Both methods ignore everything; :class:`TraceCollector` overrides
    them. Keeping the disabled path a plain attribute call (no ``if``)
    is what lets the flight stack stay instrumented at zero branch
    cost — the same trick as :data:`repro.obs.registry.NULL_REGISTRY`.
    """

    __slots__ = ()

    def emit(self, name: str, time_s: float, **attrs: Any) -> None:
        pass

    def phase(self, time_s: float, name: str, **attrs: Any) -> None:
        pass


#: Shared no-op sink (stateless, so one instance serves the process).
NULL_SINK = EventSink()


class TraceCollector(EventSink):
    """Collects spans and events for one campaign, case, or run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._next_id = 1
        self._open: list[TraceEvent] = []  # span-begin stack
        self._phase_span: TraceEvent | None = None
        #: Optional tap called with every point event — the observer
        #: uses it to feed metrics without the emitting module knowing
        #: they exist.
        self.on_point: Callable[[TraceEvent], None] | None = None

    # -- spans ---------------------------------------------------------

    @property
    def _parent(self) -> int | None:
        return self._open[-1].span_id if self._open else None

    def begin_span(self, name: str, time_s: float, **attrs: Any) -> int:
        span_id = self._next_id
        self._next_id += 1
        event = TraceEvent("B", name, time_s, span_id, self._parent, dict(attrs))
        self.events.append(event)
        self._open.append(event)
        return span_id

    def end_span(self, time_s: float, **attrs: Any) -> None:
        """End the innermost open span (a phase span ends first)."""
        if not self._open:
            raise ValueError("end_span with no open span")
        begin = self._open.pop()
        if begin is self._phase_span:
            self._phase_span = None
        self.events.append(
            TraceEvent("E", begin.name, time_s, begin.span_id, begin.parent_id, dict(attrs))
        )

    def end_all(self, time_s: float) -> None:
        """Close every open span (crash-path flush)."""
        while self._open:
            self.end_span(time_s)

    # -- flight phases -------------------------------------------------

    def phase(self, time_s: float, name: str, **attrs: Any) -> None:
        """Transition the current flight-phase span.

        Phases are mutually exclusive, so the previous phase span (if
        any) is ended at the same timestamp the new one begins. They
        nest under whatever span is currently open (usually ``run``).
        """
        if self._phase_span is not None and self._open and self._open[-1] is self._phase_span:
            self.end_span(time_s)
        self.begin_span(f"phase:{name}", time_s, **attrs)
        self._phase_span = self._open[-1]

    # -- point events --------------------------------------------------

    def emit(self, name: str, time_s: float, **attrs: Any) -> None:
        event = TraceEvent("i", name, time_s, 0, self._parent, dict(attrs))
        self.events.append(event)
        if self.on_point is not None:
            self.on_point(event)

    # -- queries -------------------------------------------------------

    def points(self, name: str | None = None) -> list[TraceEvent]:
        """Instant events, optionally filtered by name."""
        return [
            e for e in self.events if e.kind == "i" and (name is None or e.name == name)
        ]


# ---------------------------------------------------------------------------
# span-tree reconstruction (shared by the CLI and the demo)


@dataclass
class SpanNode:
    """One reconstructed span with its children and point events."""

    name: str
    span_id: int
    start_s: float
    end_s: float | None
    attrs: dict[str, Any]
    end_attrs: dict[str, Any] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)
    points: list[TraceEvent] = field(default_factory=list)

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s


def build_span_tree(events: list[TraceEvent]) -> tuple[list[SpanNode], list[TraceEvent]]:
    """Rebuild the span forest from a flat event list.

    Returns ``(roots, orphan_points)`` where orphan points are instant
    events that carry no parent span (e.g. harness-level notes).
    """
    nodes: dict[int, SpanNode] = {}
    roots: list[SpanNode] = []
    orphans: list[TraceEvent] = []
    for event in events:
        if event.kind == "B":
            node = SpanNode(
                name=event.name,
                span_id=event.span_id,
                start_s=event.time_s,
                end_s=None,
                attrs=event.attrs,
            )
            nodes[event.span_id] = node
            parent = nodes.get(event.parent_id) if event.parent_id is not None else None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        elif event.kind == "E":
            node = nodes.get(event.span_id)
            if node is not None:
                node.end_s = event.time_s
                node.end_attrs = event.attrs
        else:  # instant
            parent = nodes.get(event.parent_id) if event.parent_id is not None else None
            if parent is not None:
                parent.points.append(event)
            else:
                orphans.append(event)
    return roots, orphans


def render_span_tree(
    roots: list[SpanNode], orphans: list[TraceEvent] | None = None
) -> str:
    """ASCII rendering of the span forest with nested point events."""
    lines: list[str] = []

    def fmt_attrs(attrs: dict[str, Any]) -> str:
        if not attrs:
            return ""
        body = ", ".join(f"{k}={v}" for k, v in attrs.items())
        return f"  [{body}]"

    def walk(node: SpanNode, indent: int) -> None:
        pad = "  " * indent
        duration = node.duration_s
        dur = f"{duration:.2f}s" if duration is not None else "open"
        merged = {**node.attrs, **node.end_attrs}
        lines.append(f"{pad}{node.name}  {node.start_s:.2f}s +{dur}{fmt_attrs(merged)}")
        timeline: list[tuple[float, int, TraceEvent | SpanNode]] = []
        for i, point in enumerate(node.points):
            timeline.append((point.time_s, i, point))
        for i, child in enumerate(node.children):
            timeline.append((child.start_s, len(node.points) + i, child))
        for _t, _i, item in sorted(timeline, key=lambda e: (e[0], e[1])):
            if isinstance(item, SpanNode):
                walk(item, indent + 1)
            else:
                lines.append(
                    f"{pad}  * {item.name} @ {item.time_s:.2f}s{fmt_attrs(item.attrs)}"
                )

    for root in roots:
        walk(root, 0)
    for orphan in orphans or []:
        lines.append(f"* {orphan.name} @ {orphan.time_s:.2f}s{fmt_attrs(orphan.attrs)}")
    return "\n".join(lines)


def iter_spans(roots: list[SpanNode]) -> Iterator[SpanNode]:
    """Depth-first iteration over a span forest."""
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))
