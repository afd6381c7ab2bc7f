"""Exact-text pins of the paper-table layer's outputs.

Every number of Tables II-IV and of the redundancy study passes through
the result rows, their JSON/JSONL/CSV forms and the reductions to
percentages. These tests hold the bytes those produce, so the layer can
be rewritten without any output moving.
"""

from pathlib import Path

from repro.core.analysis import (
    check_paper_shapes,
    redundancy_rescues,
    render_rescues,
    render_shape_checks,
)
from repro.core.io import CampaignJournal, export_csv, load_campaign, save_campaign
from repro.core.results import CampaignResult, ExperimentResult
from repro.core.tables import (
    render_table,
    table2_by_duration,
    table3_by_fault,
    table4_failure_analysis,
)
from repro.flightstack.commander import MissionOutcome

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"


def test_committed_tables_file_is_the_rendering_of_the_committed_campaign():
    campaign = load_campaign(RESULTS / "campaign_scale015.json")
    text = (RESULTS / "campaign_scale015_tables.txt").read_text()
    header, body = text.split("\n", 1)
    assert header.startswith("campaign: 850 cases, scale=0.15")
    rendered = "\n\n".join([
        render_table(table2_by_duration(campaign),
                     "TABLE II: average summary grouped by injection duration"),
        render_table(table3_by_fault(campaign),
                     "TABLE III: average summary grouped by fault type"),
        render_table(table4_failure_analysis(campaign),
                     "TABLE IV: mission failure analysis"),
        render_shape_checks(check_paper_shapes(campaign)),
    ])
    assert body == "\n" + rendered + "\n"


def test_committed_csv_is_the_export_of_the_committed_campaign(tmp_path):
    out = tmp_path / "campaign.csv"
    export_csv(load_campaign(RESULTS / "campaign_scale015.json"), out)
    exported = [",".join(line.split(",")[:12]) for line in out.read_text().splitlines()]
    assert (RESULTS / "campaign_scale015.csv").read_text().splitlines() == exported


def mixed_campaign() -> CampaignResult:
    """A gold row, a harness-error row and a mitigated crash with a black box."""
    return CampaignResult(
        results=[
            ExperimentResult(0, 1, "Gold Run", None, None, None,
                             MissionOutcome.COMPLETED, 83.82000000000598,
                             0.12976239030099354, 0, 0, 0.9994372068001148),
            ExperimentResult(
                1, 2, "Gyro Min", "min", "gyro", 2.0, None, 0.0, 0.0, 0, 0, 0.0,
                error="RuntimeError: boom, twice\nsecond line", attempts=3,
                fault_scope="all",
            ),
            ExperimentResult(
                2, 3, "IMU Freeze", "freeze", "imu", 10.0, MissionOutcome.CRASHED,
                27.091234567, 0.54123456789, 2, 1, 12.3456789,
                fault_scope="primary_only", mitigated=True, imu_switchovers=1,
                isolation_succeeded=False, blackbox_path="bb/case,2.npz",
            ),
        ],
        scale=0.15,
        injection_time_s=20.0,
    )


MIXED_JSON = (
    '{\n'
    ' "schema_version": 4,\n'
    ' "scale": 0.15,\n'
    ' "injection_time_s": 20.0,\n'
    ' "results": [\n'
    '  {\n'
    '   "experiment_id": 0,\n'
    '   "mission_id": 1,\n'
    '   "fault_label": "Gold Run",\n'
    '   "fault_type": null,\n'
    '   "target": null,\n'
    '   "injection_duration_s": null,\n'
    '   "outcome": "completed",\n'
    '   "flight_duration_s": 83.82000000000598,\n'
    '   "distance_km": 0.12976239030099354,\n'
    '   "inner_violations": 0,\n'
    '   "outer_violations": 0,\n'
    '   "max_deviation_m": 0.9994372068001148,\n'
    '   "error": null,\n'
    '   "attempts": 1,\n'
    '   "fault_scope": null,\n'
    '   "mitigated": false,\n'
    '   "imu_switchovers": 0,\n'
    '   "isolation_succeeded": null,\n'
    '   "blackbox_path": null\n'
    '  },\n'
    '  {\n'
    '   "experiment_id": 1,\n'
    '   "mission_id": 2,\n'
    '   "fault_label": "Gyro Min",\n'
    '   "fault_type": "min",\n'
    '   "target": "gyro",\n'
    '   "injection_duration_s": 2.0,\n'
    '   "outcome": null,\n'
    '   "flight_duration_s": 0.0,\n'
    '   "distance_km": 0.0,\n'
    '   "inner_violations": 0,\n'
    '   "outer_violations": 0,\n'
    '   "max_deviation_m": 0.0,\n'
    '   "error": "RuntimeError: boom, twice\\nsecond line",\n'
    '   "attempts": 3,\n'
    '   "fault_scope": "all",\n'
    '   "mitigated": false,\n'
    '   "imu_switchovers": 0,\n'
    '   "isolation_succeeded": null,\n'
    '   "blackbox_path": null\n'
    '  },\n'
    '  {\n'
    '   "experiment_id": 2,\n'
    '   "mission_id": 3,\n'
    '   "fault_label": "IMU Freeze",\n'
    '   "fault_type": "freeze",\n'
    '   "target": "imu",\n'
    '   "injection_duration_s": 10.0,\n'
    '   "outcome": "crashed",\n'
    '   "flight_duration_s": 27.091234567,\n'
    '   "distance_km": 0.54123456789,\n'
    '   "inner_violations": 2,\n'
    '   "outer_violations": 1,\n'
    '   "max_deviation_m": 12.3456789,\n'
    '   "error": null,\n'
    '   "attempts": 1,\n'
    '   "fault_scope": "primary_only",\n'
    '   "mitigated": true,\n'
    '   "imu_switchovers": 1,\n'
    '   "isolation_succeeded": false,\n'
    '   "blackbox_path": "bb/case,2.npz"\n'
    '  }\n'
    ' ]\n'
    '}'
)

MIXED_JOURNAL_LINE = (
    '{"kind":"result","experiment_id":2,"mission_id":3,"fault_label":"IMU F'
    'reeze","fault_type":"freeze","target":"imu","injection_duration_s":10.'
    '0,"outcome":"crashed","flight_duration_s":27.091234567,"distance_km":0'
    '.54123456789,"inner_violations":2,"outer_violations":1,"max_deviation_'
    'm":12.3456789,"error":null,"attempts":1,"fault_scope":"primary_only","'
    'mitigated":true,"imu_switchovers":1,"isolation_succeeded":false,"black'
    'box_path":"bb/case,2.npz"}'
)

MIXED_CSV = (
    'experiment_id,mission_id,fault_label,fault_type,target,injection_duration_s,outcome,flight_duration_s,distance_km,inner_violations,outer_violations,max_deviation_m,error,attempts,fault_scope,mitigated,imu_switchovers,isolation_succeeded,blackbox_path\n'
    '0,1,Gold Run,,,,completed,83.820,0.1298,0,0,0.999,,1,,false,0,,\n'
    '1,2,Gyro Min,min,gyro,2.0,harness_error,0.000,0.0000,0,0,0.000,RuntimeError: boom; twice second line,3,all,false,0,,\n'
    '2,3,IMU Freeze,freeze,imu,10.0,crashed,27.091,0.5412,2,1,12.346,,1,primary_only,true,1,false,bb/case;2.npz\n'
)


def test_save_campaign_text(tmp_path):
    path = tmp_path / "campaign.json"
    save_campaign(mixed_campaign(), path)
    assert path.read_text() == MIXED_JSON
    assert load_campaign(path).results == mixed_campaign().results


def test_journal_line_text(tmp_path):
    journal = CampaignJournal(tmp_path / "run.jsonl")
    journal.create("fp", scale=0.15, injection_time_s=20.0, total_cases=3)
    journal.append(mixed_campaign().results[2])
    journal.close()
    assert journal.path.read_text().splitlines()[1] == MIXED_JOURNAL_LINE
    _, results = journal.load()
    assert results == {2: mixed_campaign().results[2]}


def test_export_csv_text(tmp_path):
    path = tmp_path / "campaign.csv"
    export_csv(mixed_campaign(), path)
    assert path.read_text() == MIXED_CSV


def _outcome_campaign(groups: dict[str, list[tuple[MissionOutcome, int]]]) -> CampaignResult:
    """One faulty row per (outcome, switchovers) pair, grouped by label."""
    rows = []
    for label, cases in groups.items():
        target, _ = label.split(" ", 1)
        for outcome, switchovers in cases:
            rows.append(ExperimentResult(
                len(rows), 1, label, "fault", target.lower(), 10.0, outcome,
                30.0, 0.1, 0, 0, 1.0, imu_switchovers=switchovers,
            ))
    return CampaignResult(results=rows, scale=0.1, injection_time_s=15.0)


C, X, F = MissionOutcome.COMPLETED, MissionOutcome.CRASHED, MissionOutcome.FAILSAFE


def rescue_campaigns() -> tuple[CampaignResult, CampaignResult]:
    """Baseline and mitigated groups with a three-way tie in completion
    gain, a larger gain, no gain, a loss, and a one-sided label."""
    baseline = _outcome_campaign({
        "Gyro Zeros": [(X, 0), (X, 0), (C, 0), (F, 0)],
        "Acc Max": [(X, 0), (F, 0), (X, 0), (X, 0)],
        "Acc Zeros": [(C, 0), (X, 0), (F, 0), (X, 0)],
        "Gyro Min": [(X, 0), (X, 0), (X, 0), (X, 0)],
        "Acc Noise": [(C, 0), (X, 0), (C, 0), (F, 0)],
        "IMU Zeros": [(C, 0), (C, 0), (X, 0), (X, 0)],
        "Gyro Noise": [(X, 0), (X, 0), (X, 0), (X, 0)],
    })
    mitigated = _outcome_campaign({
        "Gyro Zeros": [(C, 1), (X, 2), (C, 0), (C, 1)],
        "Acc Max": [(C, 1), (C, 1), (X, 0), (F, 3)],
        "Acc Zeros": [(C, 1), (C, 0), (C, 2), (X, 1)],
        "Gyro Min": [(C, 1), (C, 1), (C, 1), (F, 0)],
        "Acc Noise": [(C, 0), (F, 1), (C, 0), (X, 0)],
        "IMU Zeros": [(C, 0), (X, 1), (X, 0), (X, 0)],
    })
    return baseline, mitigated


RESCUES_TEXT = (
    'Redundancy rescues: 4 fault group(s) improved\n'
    '  Gyro Min: completion 0.0% -> 75.0%, crashes 100.0% -> 0.0% (3 switchover(s))\n'
    '  Acc Max: completion 0.0% -> 50.0%, crashes 75.0% -> 25.0% (5 switchover(s))\n'
    '  Acc Zeros: completion 25.0% -> 75.0%, crashes 50.0% -> 25.0% (4 switchover(s))\n'
    '  Gyro Zeros: completion 25.0% -> 75.0%, crashes 50.0% -> 25.0% (4 switchover(s))'
)


def test_render_rescues_text():
    assert render_rescues(redundancy_rescues(*rescue_campaigns())) == RESCUES_TEXT


def test_render_rescues_text_when_nothing_improved():
    baseline, _ = rescue_campaigns()
    assert render_rescues(redundancy_rescues(baseline, baseline)) == (
        "Redundancy rescues: none — no fault group completed more "
        "missions with the IMU bank than without"
    )
