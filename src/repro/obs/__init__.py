"""``repro.obs`` — tracing, metrics, and a flight data recorder.

The observability plane for the reproduction: a Prometheus-style
metrics registry, structured spans and point events, and a crash-proof
black box of the last seconds of every run, all designed so that
*disabled* observability costs one no-op call per step and *enabled*
observability cannot change a single simulated bit (no RNG draws, no
mutation of observed objects — enforced by reprolint OBS001 and the
bit-exactness tests).

See DESIGN.md section 12 for the architecture and ``python -m
repro.obs --help`` for the trace/black-box inspection CLI.
"""

from repro.obs.export import (
    chrome_trace_events,
    parse_prometheus,
    read_events_jsonl,
    render_prometheus,
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.observer import NULL_OBSERVER, Observer, run_metadata
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.obs.trace import (
    NULL_SINK,
    EventSink,
    SpanNode,
    TraceCollector,
    TraceEvent,
    build_span_tree,
    iter_spans,
    render_span_tree,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_OBSERVER",
    "NULL_REGISTRY",
    "NULL_SINK",
    "Counter",
    "EventSink",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Observer",
    "SpanNode",
    "TraceCollector",
    "TraceEvent",
    "build_span_tree",
    "chrome_trace_events",
    "get_default_registry",
    "iter_spans",
    "parse_prometheus",
    "read_events_jsonl",
    "render_prometheus",
    "render_span_tree",
    "run_metadata",
    "set_default_registry",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_prometheus",
]
