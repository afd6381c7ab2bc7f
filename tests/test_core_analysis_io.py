"""Unit tests for analysis utilities, persistence, and paper reference data."""

import dataclasses
from pathlib import Path

import pytest

from repro.core.analysis import (
    check_paper_shapes,
    render_shape_checks,
)
from repro.core.io import export_csv, load_campaign, save_campaign
from repro.core.paper_reference import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    paper_table3_row,
)
from repro.core.results import CampaignResult, ExperimentResult
from repro.core.tables import _fault_label
from repro.core.faults import FaultTarget, FaultType
from repro.flightstack.commander import MissionOutcome


def _label(target, fault):
    return _fault_label(target, fault)


def synthetic_campaign():
    """A campaign whose shape mirrors the paper's qualitative findings."""
    results = []
    eid = 0
    for mission in (1, 2):
        results.append(
            ExperimentResult(eid, mission, "Gold Run", None, None, None,
                             MissionOutcome.COMPLETED, 400.0, 3.0, 0, 0, 0.5)
        )
        eid += 1
    # Completion recipe per fault family.
    complete_labels = {"Acc Zeros", "Acc Noise", "Gyro Zeros"}
    for duration in (2.0, 30.0):
        for target in FaultTarget:
            for fault in FaultType:
                label = _label(target, fault)
                for mission in (1, 2):
                    completes = label in complete_labels and duration == 2.0
                    outcome = (
                        MissionOutcome.COMPLETED if completes else (
                            MissionOutcome.CRASHED if mission == 1 else MissionOutcome.FAILSAFE
                        )
                    )
                    inner = 20 if target is FaultTarget.ACCEL else 10
                    inner += 5 if duration == 30.0 else 0
                    results.append(
                        ExperimentResult(
                            eid, mission, label, fault.value, target.value, duration,
                            outcome, 150.0, 0.8, inner, inner // 2, 30.0,
                        )
                    )
                    eid += 1
    return CampaignResult(results=results, scale=0.2, injection_time_s=20.0)


def test_shape_checks_pass_on_paper_shaped_campaign():
    checks = check_paper_shapes(synthetic_campaign())
    names = {c.name for c in checks}
    assert "gold-baseline" in names
    assert "component-ordering" in names
    by_name = {c.name: c for c in checks}
    assert by_name["gold-baseline"].holds
    assert by_name["duration-severity"].holds
    assert by_name["acc-zeros-noise-survivable"].holds
    assert by_name["gyro-zeros-vs-min"].holds
    assert by_name["acc-heaviest-violations"].holds


def _replace_where(campaign, pred, **changes):
    """``campaign`` with ``changes`` applied to every row ``pred`` picks."""
    rows = [dataclasses.replace(r, **changes) if pred(r) else r for r in campaign.results]
    return dataclasses.replace(campaign, results=rows)


COMPLETED = {"outcome": MissionOutcome.COMPLETED}

#: One campaign per shape check that violates exactly that check's finding.
VIOLATIONS = {
    "gold-baseline": (lambda r: r.is_gold, {"outer_violations": 1}),
    "long-injections-cut-short": (
        lambda r: r.injection_duration_s == 30.0,
        {"flight_duration_s": 500.0},
    ),
    "gyro-violent-losses": (lambda r: r.fault_label == "Gyro Random", COMPLETED),
    "gyro-best-row": (lambda r: r.fault_label == "Gyro Noise", COMPLETED),
    "imu-failure-rate": (lambda r: r.fault_label == "IMU Max", COMPLETED),
}


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_shape_check_fails_when_its_finding_is_violated(name):
    pred, changes = VIOLATIONS[name]
    holds = {c.name: c.holds for c in check_paper_shapes(synthetic_campaign())}
    assert holds[name]
    violated = check_paper_shapes(_replace_where(synthetic_campaign(), pred, **changes))
    assert {c.name: c.holds for c in violated}[name] is False


def test_render_shape_checks():
    text = render_shape_checks(check_paper_shapes(synthetic_campaign()))
    assert "qualitative findings reproduced" in text
    assert "[PASS]" in text


def test_experiments_md_publishes_the_shape_checks_of_the_committed_campaign():
    """EXPERIMENTS.md's shape-check verdicts are the oracle's own
    rendering on the committed campaign, not a hand-kept copy."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "EXPERIMENTS.md").read_text()
    section = text.split("## Automated shape checks", 1)[1].split("\n## ", 1)[0]
    published = section.split("```text\n", 1)[1].split("```", 1)[0]
    checks = check_paper_shapes(load_campaign(root / "results" / "campaign_scale015.json"))
    assert len(checks) == 13 and all(c.holds for c in checks)
    assert published == render_shape_checks(checks) + "\n"


# ------------------------------------------------------------------ io


def test_save_load_round_trip(tmp_path):
    campaign = synthetic_campaign()
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    loaded = load_campaign(path)
    assert loaded.scale == campaign.scale
    assert loaded.injection_time_s == campaign.injection_time_s
    assert len(loaded.results) == len(campaign.results)
    for a, b in zip(loaded.results, campaign.results):
        assert a == b


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99, "results": []}')
    with pytest.raises(ValueError):
        load_campaign(path)


def test_export_csv(tmp_path):
    campaign = synthetic_campaign()
    path = tmp_path / "campaign.csv"
    export_csv(campaign, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(campaign.results) + 1
    assert lines[0].startswith("experiment_id,mission_id")
    assert "Gold Run" in lines[1]


# -------------------------------------------------------- paper reference


def test_paper_tables_complete():
    assert len(PAPER_TABLE2) == 5  # gold + 4 durations
    assert len(PAPER_TABLE3) == 22  # gold + 21 faults
    assert len(PAPER_TABLE4) == 8  # gold + 4 durations + 3 components


def test_paper_table3_lookup():
    row = paper_table3_row("Gyro Zeros")
    assert row.completed_pct == 40.0
    with pytest.raises(KeyError):
        paper_table3_row("Nope")


def test_paper_table4_splits_sum_to_100():
    for row in PAPER_TABLE4:
        if row.failed_pct > 0:
            assert row.crash_pct + row.failsafe_pct == pytest.approx(100.0)


def test_paper_table3_zero_rows():
    zero_rows = [r.label for r in PAPER_TABLE3 if r.completed_pct == 0.0]
    assert set(zero_rows) == {"Gyro Min", "IMU Min", "IMU Freeze"}
