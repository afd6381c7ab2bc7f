"""Integration tests: obs threaded through the vehicle and the campaign.

The two contracts that make the observability plane safe to leave on:

* **Bit-exactness** — the golden per-step traces (recorded with no
  observer) must match with the full observer attached; an observer
  that changed a single mantissa bit anywhere fails here.
* **Post-mortem coverage** — every non-completed case of an observed
  campaign leaves a readable black box, surfaced on the result row.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.campaign import CampaignConfig, run_campaign, run_experiment
from repro.core.experiments import ExperimentSpec, build_experiment_matrix
from repro.core.faults import FaultSpec, FaultTarget, FaultType
from repro.core.io import export_csv, load_campaign, save_campaign
from repro.core.resilience import EtaEstimator
from repro.core.results import CampaignResult, ExperimentResult
from repro.flightstack.commander import MissionOutcome
from repro.obs import MetricsRegistry, Observer, write_events_jsonl
from repro.obs.__main__ import main as obs_main
from repro.obs.trace import TraceCollector
from repro.perf.fingerprint import GOLDEN_SPECS, replay_golden
from repro.telemetry import load_recording
from tests.configs import TINY

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_step_traces.json"


# ------------------------------------------------------- bit-exactness


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_step_traces_identical_with_obs_enabled(name):
    """The strongest read-only check: per-step SHA-256 of every
    metric-bearing quantity, unchanged by a full observer."""
    expected = json.loads(GOLDEN_PATH.read_text())[name]
    got = replay_golden(name, obs=Observer(registry=MetricsRegistry()))
    assert got["final_digest"] == expected["final_digest"], (
        f"observer changed the {name!r} run"
    )


def test_observed_experiment_result_is_bit_identical(tmp_path):
    spec = ExperimentSpec(1, 2, FaultSpec(FaultType.MIN, FaultTarget.GYRO, 15.0, 2.0, seed=1))
    plain = run_experiment(spec, TINY)
    observed = run_experiment(
        spec, dataclasses.replace(TINY, obs_dir=str(tmp_path))
    )
    assert observed.blackbox_path is not None
    assert dataclasses.replace(observed, blackbox_path=None) == plain


# ------------------------------------------------------- black boxes


@pytest.fixture(scope="module")
def observed_campaign(tmp_path_factory):
    """A tiny real campaign with black boxes on: gold + two gyro faults."""
    obs_dir = tmp_path_factory.mktemp("blackboxes")
    config = dataclasses.replace(TINY, obs_dir=str(obs_dir))
    specs = build_experiment_matrix(
        mission_ids=[2],
        durations_s=(2.0,),
        injection_time_s=15.0,
        fault_types=(FaultType.MIN, FaultType.ZEROS),
        targets=(FaultTarget.GYRO,),
        include_gold=True,
    )
    return run_campaign(config, specs=specs), obs_dir


def test_every_noncompleted_case_leaves_a_readable_blackbox(observed_campaign):
    campaign, _obs_dir = observed_campaign
    noncompleted = [
        r for r in campaign.results if r.outcome is not MissionOutcome.COMPLETED
    ]
    assert noncompleted, "fixture needs at least one failing case"
    for result in campaign.results:
        if result.outcome is MissionOutcome.COMPLETED:
            assert result.blackbox_path is None
            continue
        assert result.blackbox_path is not None
        payload = load_recording(result.blackbox_path)
        assert payload["rows"].shape[0] > 0
        assert payload["metadata"]["mission_id"] == result.mission_id
        assert payload["metadata"]["fault"] == result.fault_label
        assert payload["metadata"]["outcome"] == result.outcome.value
        # The embedded trace reaches the terminal transition.
        names = {e["name"] for e in payload["events"]}
        assert "injection.start" in names
        assert "mission.outcome" in names


def test_blackbox_filenames_follow_experiment_ids(observed_campaign):
    campaign, obs_dir = observed_campaign
    for result in campaign.results:
        if result.blackbox_path is not None:
            assert (
                Path(result.blackbox_path).name
                == f"blackbox_exp{result.experiment_id:04d}.json"
            )
            assert Path(result.blackbox_path).parent == obs_dir


# ------------------------------------------------------- campaign tracing


def _fake_runner(spec: ExperimentSpec, config: CampaignConfig) -> ExperimentResult:
    return ExperimentResult(
        spec.experiment_id, spec.mission_id, spec.label, None, None, None,
        MissionOutcome.COMPLETED, 10.0, 1.0, 0, 0, 0.0,
    )


def _fake_specs(n: int) -> list[ExperimentSpec]:
    return [ExperimentSpec(i, 2, None) for i in range(n)]


def test_serial_campaign_nests_case_spans():
    obs = Observer(registry=MetricsRegistry(), trace=TraceCollector())
    run_campaign(TINY, specs=_fake_specs(3), runner=_fake_runner, obs=obs)
    events = obs.trace.events
    begins = [e for e in events if e.kind == "B"]
    assert [b.name for b in begins] == ["campaign", "case", "case", "case"]
    assert begins[0].attrs["total_cases"] == 3
    case_ids = [b.attrs["experiment_id"] for b in begins[1:]]
    assert case_ids == [0, 1, 2]
    # Every span closed, campaign last.
    ends = [e for e in events if e.kind == "E"]
    assert len(ends) == 4 and ends[-1].name == "campaign"
    done = [e for e in events if e.name == "case.done"]
    assert [e.attrs["outcome"] for e in done] == ["completed"] * 3
    assert obs.metrics.value("campaign_cases_total", status="ok") == 3.0


def test_parallel_campaign_emits_points_not_case_spans():
    obs = Observer(registry=MetricsRegistry(), trace=TraceCollector())
    config = dataclasses.replace(TINY, workers=2)
    run_campaign(config, specs=_fake_specs(4), runner=_fake_runner, obs=obs)
    events = obs.trace.events
    assert [e.name for e in events if e.kind == "B"] == ["campaign"]
    assert len([e for e in events if e.name == "case.done"]) == 4
    assert obs.metrics.value("campaign_cases_total", status="ok") == 4.0


def test_progress_ticker_prints_eta_without_obs(capsys):
    run_campaign(TINY, specs=_fake_specs(10), runner=_fake_runner, progress=True)
    out = capsys.readouterr().out
    assert "10/10 experiments done" in out
    assert "ETA" in out


# ------------------------------------------------------- ETA estimator


def test_eta_estimator_with_fake_clock():
    now = {"t": 100.0}
    eta = EtaEstimator(total=10, already_done=2, clock=lambda: now["t"])
    assert eta.eta_s() is None
    assert eta.format() == "ETA --"
    now["t"] = 110.0
    eta.update(4)  # 2 fresh cases in 10 s; 6 remain -> 30 s
    assert eta.eta_s() == pytest.approx(30.0)
    assert eta.format() == "ETA 30s"
    eta.update(9)  # 7 fresh in 10 s; 1 remains
    assert eta.eta_s() == pytest.approx(10.0 / 7.0)
    eta.update(10)
    assert eta.eta_s() == 0.0


def test_eta_format_ranges():
    now = {"t": 0.0}
    eta = EtaEstimator(total=100, clock=lambda: now["t"])
    now["t"] = 90.0
    eta.update(1)  # 90 s/case, 99 remaining -> 8910 s
    assert eta.format() == "ETA 2h28m"
    eta.update(99)  # 99 in 90 s, 1 remaining -> ~0.9 s
    assert eta.format() == "ETA 1s"
    eta.update(50)  # 50 in 90 s, 50 remaining -> 90 s
    assert eta.format() == "ETA 1m30s"
    with pytest.raises(ValueError):
        EtaEstimator(total=-1)


# ------------------------------------------------------- persistence v4


def _tiny_campaign() -> CampaignResult:
    results = [
        ExperimentResult(0, 1, "Gold Run", None, None, None,
                         MissionOutcome.COMPLETED, 400.0, 3.0, 0, 0, 0.5),
        ExperimentResult(1, 1, "Gyro Min", "min", "gyro", 2.0,
                         MissionOutcome.CRASHED, 150.0, 0.8, 12, 3, 30.0,
                         blackbox_path="/tmp/obs/blackbox_exp0001.json"),
    ]
    return CampaignResult(results=results, scale=0.2, injection_time_s=20.0)


def test_schema_v4_round_trips_blackbox_path(tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(_tiny_campaign(), path)
    assert json.loads(path.read_text())["schema_version"] == 4
    loaded = load_campaign(path)
    assert loaded.results[0].blackbox_path is None
    assert loaded.results[1].blackbox_path == "/tmp/obs/blackbox_exp0001.json"
    assert loaded.results == _tiny_campaign().results


def test_csv_export_carries_blackbox_path(tmp_path):
    path = tmp_path / "campaign.csv"
    export_csv(_tiny_campaign(), path)
    header, gold_row, crash_row = path.read_text().splitlines()
    assert header.endswith(",blackbox_path")
    assert gold_row.endswith(",")
    assert crash_row.endswith(",/tmp/obs/blackbox_exp0001.json")


# ------------------------------------------------------- CLI


def test_cli_summarize_blackbox(observed_campaign, capsys):
    campaign, _ = observed_campaign
    crashed = next(r for r in campaign.results if r.blackbox_path)
    assert obs_main(["summarize", crashed.blackbox_path]) == 0
    out = capsys.readouterr().out
    assert "run metadata:" in out
    assert "span tree:" in out
    assert "injection.start" in out
    assert "point events:" in out


def test_cli_render_blackbox(observed_campaign, capsys):
    campaign, _ = observed_campaign
    crashed = next(r for r in campaign.results if r.blackbox_path)
    assert obs_main(["render", crashed.blackbox_path, "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "top-down" in out
    assert "altitude" in out
    assert "#" in out  # the injection window is visible on the plot


def test_cli_diff_two_traces(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ta, tb = TraceCollector(), TraceCollector()
    ta.begin_span("run", 0.0)
    ta.emit("bubble.inner_violation", 1.0)
    ta.end_all(2.0)
    tb.begin_span("run", 0.0)
    tb.emit("bubble.inner_violation", 1.0)
    tb.emit("bubble.inner_violation", 1.5)
    tb.emit("imu.switchover", 1.2)
    tb.end_all(4.0)
    write_events_jsonl(ta.events, a)
    write_events_jsonl(tb.events, b)
    assert obs_main(["diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "+ bubble.inner_violation: 1 -> 2" in out
    assert "+ imu.switchover: 0 -> 1" in out
    assert "run: 2.00 -> 4.00 (+2.00)" in out


def test_cli_errors_exit_2(tmp_path, capsys):
    assert obs_main(["summarize", str(tmp_path / "missing.jsonl")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert obs_main(["render", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
