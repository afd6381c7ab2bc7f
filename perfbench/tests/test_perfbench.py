"""Tests of the campaign benchmark's own code paths, on tiny matrices.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny(request, tmp_path_factory):
    """A tiny workload, its pins, and one untraced and one traced run."""
    workload = WORKLOADS[request.param].tiny()
    scratch = tmp_path_factory.mktemp(request.param)
    pinned = bench.run_pass(workload, 0, scratch / "pin")
    pins = bench.pins_of(pinned)
    untraced = bench.run_untraced(workload, 0, 0.0, scratch / "untraced", pins)
    traced = bench.run_traced(workload, 0, scratch / "traced", pins)
    return workload, pinned, pins, untraced, traced


def test_untraced_run_reports_every_end_to_end_metric(tiny):
    _, _, _, result, _ = tiny
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_matches_untraced_and_reports_every_layer(tiny):
    workload, _, _, _, result = tiny
    assert result["detail"]["traced_rows_equal_untraced"]
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # Records from every worker were merged: one per case.
    assert m["campaign.cases_timed"] == 2
    assert m["system.steps_per_case"] > 0
    assert m["sensors.sample_calls_per_step"] == 4.0
    assert m["estimation.predict_calls_per_step"] == 1.0
    assert m["sim.physics_calls_per_step"] == 1.0
    assert 0.0 < m["system.step_self_ns"] < m["system.step_ns"]
    assert m["io.journal_appends"] == (2 if workload.journal else 0)
    if workload.gold_only:
        assert m["system.prefix_steps_frac"] == 0.0
    else:
        assert 0.0 < m["system.prefix_steps_frac"] < 1.0
    slowest = result["detail"]["slowest_cases"]
    assert len(slowest) == 2 and slowest[0]["host_s"] >= slowest[1]["host_s"]


def test_perturbed_pin_counts_as_failed(tiny):
    _, pinned, pins, _, _ = tiny
    assert bench.count_failed(pinned, pins) == 0
    perturbed = copy.deepcopy(pins)
    perturbed["rows"][1]["flight_duration_s"] += 1e-9
    assert bench.count_failed(pinned, perturbed) == 1
    stale = dict(pins, fingerprint="another matrix")
    assert bench.count_failed(pinned, stale) == 2


def test_perturbed_pin_raises_failed_frac(tmp_path):
    workload = WORKLOADS["fault_matrix"].tiny()
    pins = bench.pins_of(bench.run_pass(workload, 0, tmp_path / "pin"))
    pins["rows"][0]["outcome"] = "perturbed"
    result = bench.run_traced(workload, 0, tmp_path / "traced", pins)
    assert not result["correct"]
    assert result["metrics"]["campaign.failed_frac"]["value"] > 0.0


def test_tracer_restores_every_method():
    targets = [(o, n) for calls in tracing.STEP_STAGES.values() for o, n in calls]
    targets += [(o, n) for calls in tracing.CASE_CALLS.values() for o, n in calls]
    before = {(o, n): vars(o)[n] for o, n in targets}
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        assert all(vars(o)[n] is not before[(o, n)] for o, n in targets)
    finally:
        tracer.uninstall()
    assert all(vars(o)[n] is before[(o, n)] for o, n in targets)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
