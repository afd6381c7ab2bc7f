"""Checkpoint/resume tests: the JSONL journal, fingerprint guarding,
kill-then-resume bit-identity, and serial/parallel equivalence.
"""

import dataclasses
import json

import pytest

from repro.core.campaign import run_campaign, run_experiment
from repro.core.experiments import build_experiment_matrix
from repro.core.faults import FaultTarget, FaultType
from repro.core.io import CampaignJournal, JournalMismatchError
from repro.core.resilience import campaign_fingerprint
from repro.core.results import ExperimentResult, harness_error_result
from repro.flightstack.commander import MissionOutcome
from tests.configs import TINY as CONFIG


def small_specs():
    """1 gold + 4 gyro faults on mission 2 (experiment ids 0..4)."""
    return build_experiment_matrix(
        mission_ids=[2],
        durations_s=(2.0,),
        injection_time_s=15.0,
        fault_types=(FaultType.ZEROS, FaultType.MIN, FaultType.MAX, FaultType.NOISE),
        targets=(FaultTarget.GYRO,),
        include_gold=True,
    )


def fake_runner(spec, config):
    """Deterministic synthetic result — no simulator, instant."""
    return ExperimentResult(
        experiment_id=spec.experiment_id,
        mission_id=spec.mission_id,
        fault_label=spec.label,
        fault_type=spec.fault.fault_type.value if spec.fault else None,
        target=spec.fault.target.value if spec.fault else None,
        injection_duration_s=spec.duration_s,
        outcome=MissionOutcome.COMPLETED,
        flight_duration_s=100.0 + spec.experiment_id,
        distance_km=1.0,
        inner_violations=spec.experiment_id,
        outer_violations=0,
        max_deviation_m=0.5,
    )


KILL_STATE = {"completed": 0, "armed": False}


def killing_runner(spec, config):
    """Completes two cases, then simulates a mid-campaign kill."""
    if KILL_STATE["armed"] and KILL_STATE["completed"] >= 2:
        raise KeyboardInterrupt("simulated kill")
    KILL_STATE["completed"] += 1
    return fake_runner(spec, config)


def must_not_run(spec, config):
    raise AssertionError("runner must not be invoked on a complete checkpoint")


SMOKE_STATE = {"completed": 0, "armed": False}


def smoke_killing_runner(spec, config):
    """Real-simulator runner that dies after completing one case."""
    if SMOKE_STATE["armed"] and SMOKE_STATE["completed"] >= 1:
        raise KeyboardInterrupt("simulated kill")
    result = run_experiment(spec, config)
    SMOKE_STATE["completed"] += 1
    return result


# -------------------------------------------------------------- journal


def test_journal_round_trip(tmp_path):
    specs = small_specs()
    journal = CampaignJournal(tmp_path / "run.jsonl")
    journal.create(
        fingerprint="abc", scale=0.1, injection_time_s=15.0, total_cases=5
    )
    journal.append(fake_runner(specs[0], CONFIG))
    journal.append(harness_error_result(specs[1], RuntimeError("gone"), 2))
    journal.close()

    header, results = journal.load(expected_fingerprint="abc")
    assert header["total_cases"] == 5
    assert header["complete"] is False
    assert set(results) == {0, 1}
    assert results[0] == fake_runner(specs[0], CONFIG)
    assert results[1].is_harness_error
    assert results[1].attempts == 2


def test_journal_tolerates_torn_final_append(tmp_path):
    specs = small_specs()
    path = tmp_path / "run.jsonl"
    journal = CampaignJournal(path)
    journal.create(fingerprint="abc", scale=0.1, injection_time_s=15.0, total_cases=5)
    journal.append(fake_runner(specs[0], CONFIG))
    journal.close()
    # Simulate a crash mid-append: a half-written trailing line.
    with open(path, "a") as handle:
        handle.write('{"kind": "result", "experiment_id": 1, "mis')
    _, results = journal.load()
    assert set(results) == {0}


def test_journal_rejects_corrupt_middle_record(tmp_path):
    specs = small_specs()
    path = tmp_path / "run.jsonl"
    journal = CampaignJournal(path)
    journal.create(fingerprint="abc", scale=0.1, injection_time_s=15.0, total_cases=5)
    journal.close()
    lines = path.read_text().splitlines()
    lines.append("not json at all")
    lines.append(
        json.dumps(
            {"kind": "result", **_as_dict(fake_runner(specs[0], CONFIG))}
        )
    )
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt record"):
        journal.load()


def _as_dict(result):
    from repro.core.io import _result_to_dict

    return _result_to_dict(result)


def test_journal_fingerprint_guard(tmp_path):
    journal = CampaignJournal(tmp_path / "run.jsonl")
    journal.create(fingerprint="abc", scale=0.1, injection_time_s=15.0, total_cases=5)
    journal.close()
    with pytest.raises(JournalMismatchError):
        journal.load(expected_fingerprint="different")


def test_journal_finalize_compacts_and_marks_complete(tmp_path):
    specs = small_specs()
    journal = CampaignJournal(tmp_path / "run.jsonl")
    journal.create(fingerprint="abc", scale=0.1, injection_time_s=15.0, total_cases=2)
    # Duplicate record for id 0 (as a crash/resume cycle can produce).
    journal.append(fake_runner(specs[0], CONFIG))
    journal.append(fake_runner(specs[0], CONFIG))
    journal.append(fake_runner(specs[1], CONFIG))
    journal.finalize()
    lines = (tmp_path / "run.jsonl").read_text().splitlines()
    assert len(lines) == 3  # header + exactly one record per case
    header, results = journal.load()
    assert header["complete"] is True
    assert set(results) == {0, 1}


# ------------------------------------------------------ checkpointing


def test_checkpoint_written_and_complete(tmp_path):
    specs = small_specs()
    path = tmp_path / "run.jsonl"
    campaign = run_campaign(
        CONFIG, specs=specs, runner=fake_runner, checkpoint_path=str(path)
    )
    assert len(campaign.results) == 5
    header, results = CampaignJournal(path).load(
        expected_fingerprint=campaign_fingerprint(CONFIG, specs)
    )
    assert header["complete"] is True
    assert set(results) == {s.experiment_id for s in specs}


def test_resume_from_complete_checkpoint_skips_all_cases(tmp_path):
    specs = small_specs()
    path = tmp_path / "run.jsonl"
    first = run_campaign(
        CONFIG, specs=specs, runner=fake_runner, checkpoint_path=str(path)
    )
    resumed = run_campaign(
        CONFIG,
        specs=specs,
        runner=must_not_run,
        checkpoint_path=str(path),
        resume=True,
    )
    assert resumed.results == first.results


def test_resume_refuses_mismatched_config(tmp_path):
    specs = small_specs()
    path = tmp_path / "run.jsonl"
    run_campaign(CONFIG, specs=specs, runner=fake_runner, checkpoint_path=str(path))
    other = dataclasses.replace(CONFIG, base_seed=99)
    other_specs = build_experiment_matrix(
        mission_ids=[2],
        durations_s=(2.0,),
        injection_time_s=15.0,
        fault_types=(FaultType.ZEROS, FaultType.MIN, FaultType.MAX, FaultType.NOISE),
        targets=(FaultTarget.GYRO,),
        base_seed=99,
        include_gold=True,
    )
    with pytest.raises(JournalMismatchError):
        run_campaign(
            other,
            specs=other_specs,
            runner=must_not_run,
            checkpoint_path=str(path),
            resume=True,
        )


def test_resume_reruns_previous_harness_errors(tmp_path):
    specs = small_specs()
    path = tmp_path / "run.jsonl"
    journal = CampaignJournal(path)
    journal.create(
        fingerprint=campaign_fingerprint(CONFIG, specs),
        scale=CONFIG.scale,
        injection_time_s=CONFIG.effective_injection_time_s,
        total_cases=len(specs),
    )
    journal.append(fake_runner(specs[0], CONFIG))
    journal.append(harness_error_result(specs[1], RuntimeError("transient"), 1))
    journal.close()
    resumed = run_campaign(
        CONFIG,
        specs=specs,
        runner=fake_runner,
        checkpoint_path=str(path),
        resume=True,
    )
    # The harness-errored case got a second chance and now succeeded.
    assert not resumed.harness_errors
    assert resumed.results == [fake_runner(s, CONFIG) for s in specs]


def test_kill_then_resume_bit_identical(tmp_path):
    specs = small_specs()
    path = tmp_path / "run.jsonl"

    uninterrupted = run_campaign(CONFIG, specs=specs, runner=fake_runner)

    KILL_STATE.update(completed=0, armed=True)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            CONFIG, specs=specs, runner=killing_runner, checkpoint_path=str(path)
        )
    KILL_STATE["armed"] = False

    # The journal durably holds exactly the cases that finished.
    _, partial = CampaignJournal(path).load()
    assert len(partial) == 2

    # Resume — with a process pool, to prove the fingerprint ignores
    # worker count — and compare against the uninterrupted run.
    resumed = run_campaign(
        dataclasses.replace(CONFIG, workers=2),
        specs=specs,
        runner=fake_runner,
        checkpoint_path=str(path),
        resume=True,
    )
    assert resumed.results == uninterrupted.results
    assert resumed.specs == uninterrupted.specs
    assert resumed.scale == uninterrupted.scale
    assert resumed.injection_time_s == uninterrupted.injection_time_s


def test_resume_without_checkpoint_restarts(tmp_path):
    """resume=False on an existing journal starts the campaign over."""
    specs = small_specs()
    path = tmp_path / "run.jsonl"
    run_campaign(CONFIG, specs=specs, runner=fake_runner, checkpoint_path=str(path))
    campaign = run_campaign(
        CONFIG, specs=specs, runner=fake_runner, checkpoint_path=str(path)
    )
    assert len(campaign.results) == len(specs)


# ------------------------------------------- smoke test (real simulator)


def tiny_real_specs():
    """Gold + Gyro Zeros + Gyro Min on mission 2 — three real sim runs."""
    return build_experiment_matrix(
        mission_ids=[2],
        durations_s=(2.0,),
        injection_time_s=15.0,
        fault_types=(FaultType.ZEROS, FaultType.MIN),
        targets=(FaultTarget.GYRO,),
        include_gold=True,
    )


@pytest.fixture(scope="module")
def serial_campaign():
    """The tiny real campaign flown once, serially and uninterrupted."""
    return run_campaign(CONFIG, specs=tiny_real_specs())


def test_smoke_kill_midway_then_resume_matches_uninterrupted(tmp_path, serial_campaign):
    """Tier-1 smoke: run a tiny real campaign, kill it after one case,
    resume from the journal, and require the merged result to be
    bit-identical to an uninterrupted run."""
    specs = tiny_real_specs()
    path = tmp_path / "smoke.jsonl"

    SMOKE_STATE.update(completed=0, armed=True)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(
            CONFIG,
            specs=specs,
            runner=smoke_killing_runner,
            checkpoint_path=str(path),
        )
    SMOKE_STATE["armed"] = False

    _, partial = CampaignJournal(path).load()
    assert 1 <= len(partial) < len(specs)

    resumed = run_campaign(
        CONFIG, specs=specs, checkpoint_path=str(path), resume=True
    )
    assert resumed.results == serial_campaign.results


# ------------------------------------- serial / parallel equivalence


def test_serial_and_parallel_campaigns_bit_identical(serial_campaign):
    """run_campaign(workers=1) and run_campaign(workers=2) must agree on
    the entire CampaignResult, not just individual rows (the module
    docstring promises parallelism cannot change results)."""
    assert CONFIG.workers == 1
    serial = serial_campaign
    parallel = run_campaign(dataclasses.replace(CONFIG, workers=2), specs=tiny_real_specs())
    assert serial.results == parallel.results
    assert serial.specs == parallel.specs
    assert serial.scale == parallel.scale
    assert serial.injection_time_s == parallel.injection_time_s
