"""The obs-overhead gate's verdict and arithmetic, on synthetic numbers."""

from __future__ import annotations

import math
import types

import pytest

from repro.perf import bench


def test_gate_passes_at_exactly_the_ceiling():
    assert bench.check_obs_overhead({"obs_overhead_frac": bench.OBS_OVERHEAD_CEILING})


def test_gate_fails_just_above_the_ceiling():
    just_above = math.nextafter(bench.OBS_OVERHEAD_CEILING, 1.0)
    assert not bench.check_obs_overhead({"obs_overhead_frac": just_above})


def test_report_keeps_a_negative_overhead(monkeypatch):
    """An enabled side that timed faster is noise the report must show,
    not a clipped 0."""
    monkeypatch.setattr(bench, "WARMUP_STEPS", 0)
    monkeypatch.setattr(bench, "_paired_overhead", lambda *_: (1000.0, 1030.0, -0.03))
    assert bench.run_bench()["obs_overhead_frac"] == -0.03


@pytest.mark.parametrize("enabled_cost", [1.04, 0.97])
def test_paired_overhead_is_the_cost_ratio(monkeypatch, enabled_cost):
    """On a fake clock where each step costs a fixed time, the overhead
    is exactly the cost ratio minus one and the rates are exact."""
    clock = [0.0]

    class Stepper:
        def __init__(self, cost: float) -> None:
            self.cost = cost

        def step(self) -> None:
            clock[0] += self.cost

    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    disabled_rate, enabled_rate, overhead = bench._paired_overhead(
        Stepper(1e-3), Stepper(enabled_cost * 1e-3), n_steps=10, quartets=8
    )
    assert overhead == pytest.approx(enabled_cost - 1.0)
    assert disabled_rate == pytest.approx(1e3)
    assert enabled_rate == pytest.approx(1e3 / enabled_cost)


def test_verdict_reads_the_median_of_independent_estimates(monkeypatch):
    """One wild estimate moves neither the reported overhead nor the
    verdict; the report lists every estimate."""
    monkeypatch.setattr(bench, "WARMUP_STEPS", 0)
    monkeypatch.setattr(bench, "ESTIMATES", 5)
    draws = iter([0.30, 0.02, -0.20, 0.03, 0.01])
    monkeypatch.setattr(
        bench, "_paired_overhead", lambda *_: (1000.0, 1000.0, next(draws))
    )
    report = bench.run_bench()
    assert report["obs_overhead_frac"] == 0.02
    assert report["obs_overhead_estimates"] == [0.30, 0.02, -0.20, 0.03, 0.01]
    assert bench.check_obs_overhead(report)
