"""Unit tests for the metrics registry and the Prometheus exporter."""

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.obs.export import parse_prometheus, render_prometheus, write_prometheus


# ------------------------------------------------------------- instruments


def test_counter_counts_and_rejects_decrements():
    reg = MetricsRegistry()
    c = reg.counter("steps_total", "Steps.").default
    c.inc()
    c.inc(2.5)
    assert reg.value("steps_total") == 3.5
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("altitude_m").default
    g.set(15.0)
    g.inc(5.0)
    g.dec(2.0)
    assert reg.value("altitude_m") == 18.0


def test_histogram_cumulative_buckets():
    h = Histogram(buckets=(1.0, 5.0, 10.0))
    for v in (0.5, 0.7, 3.0, 7.0, 100.0):
        h.observe(v)
    assert h.bucket_counts == [2, 3, 4]  # cumulative: <=1, <=5, <=10
    assert h.count == 5
    assert h.total == pytest.approx(111.2)


def test_histogram_validates_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(5.0, 1.0))
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ------------------------------------------------------------- families


def test_labelled_family_children_and_default_guard():
    reg = MetricsRegistry()
    fam = reg.counter("runs_total", "Runs.", labels=("outcome",))
    fam.labels(outcome="crashed").inc()
    fam.labels(outcome="crashed").inc()
    fam.labels(outcome="completed").inc()
    assert reg.value("runs_total", outcome="crashed") == 2.0
    assert reg.value("runs_total", outcome="completed") == 1.0
    with pytest.raises(ValueError):
        fam.default  # labelled family has no unlabelled child
    with pytest.raises(ValueError):
        fam.labels(wrong="x")


def test_get_or_create_is_kind_checked():
    reg = MetricsRegistry()
    first = reg.counter("x_total")
    assert reg.counter("x_total") is first
    with pytest.raises(ValueError):
        reg.gauge("x_total")
    with pytest.raises(ValueError):
        reg.counter("x_total", labels=("a",))


# ------------------------------------------------------------- null mode


def test_null_registry_is_branchless_and_inert():
    before = NULL_REGISTRY.families()
    NULL_REGISTRY.counter("anything_total", labels=("x",)).labels(x="1").inc()
    NULL_REGISTRY.gauge("g").default.set(99.0)
    NULL_REGISTRY.histogram("h").default.observe(1.0)
    assert NULL_REGISTRY.families() == before == []
    # The same chain of calls works on a real registry — call sites
    # never branch on which registry they hold.
    real = MetricsRegistry()
    real.counter("anything_total", labels=("x",)).labels(x="1").inc()
    assert real.value("anything_total", x="1") == 1.0


def test_default_registry_swap_restores():
    original = get_default_registry()
    mine = MetricsRegistry()
    try:
        assert set_default_registry(mine) is original
        assert get_default_registry() is mine
    finally:
        set_default_registry(original)
    assert get_default_registry() is original


# ------------------------------------------------------------- exposition


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("runs_total", "Runs by outcome.", labels=("outcome",)).labels(
        outcome="crashed"
    ).inc(4)
    reg.gauge("flight_distance_m", "Distance.").default.set(123.5)
    hist = reg.histogram("dur_seconds", "Durations.", buckets=(1.0, 10.0))
    hist.default.observe(0.5)
    hist.default.observe(5.0)
    return reg


def test_prometheus_render_and_parse_round_trip():
    text = render_prometheus(_populated_registry())
    assert "# TYPE runs_total counter" in text
    assert "# HELP flight_distance_m Distance." in text
    samples = parse_prometheus(text)
    assert samples['runs_total{outcome="crashed"}'] == 4.0
    assert samples["flight_distance_m"] == 123.5
    assert samples['dur_seconds_bucket{le="1"}'] == 1.0
    assert samples['dur_seconds_bucket{le="10"}'] == 2.0
    assert samples['dur_seconds_bucket{le="+Inf"}'] == 2.0
    assert samples["dur_seconds_sum"] == 5.5
    assert samples["dur_seconds_count"] == 2.0


def test_prometheus_label_escaping_and_name_validation():
    reg = MetricsRegistry()
    reg.counter("e_total", labels=("msg",)).labels(msg='a"b\\c\nd').inc()
    text = render_prometheus(reg)
    assert r'msg="a\"b\\c\nd"' in text
    bad = MetricsRegistry()
    bad.counter("bad-name")
    with pytest.raises(ValueError):
        render_prometheus(bad)


def test_parse_prometheus_rejects_malformed_sample():
    with pytest.raises(ValueError, match="line 1"):
        parse_prometheus("not a sample line\n")


def test_write_prometheus_file(tmp_path):
    path = tmp_path / "metrics.prom"
    write_prometheus(_populated_registry(), path)
    samples = parse_prometheus(path.read_text())
    assert samples["flight_distance_m"] == 123.5
