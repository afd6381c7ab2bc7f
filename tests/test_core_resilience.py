"""Tests for the resilient campaign engine: retries, timeouts, and
harness-error degradation under injected harness failures.

The fake runners live at module level so the process-pool tests can
pickle them into worker processes.
"""

import os
import time

import pytest

from repro.core.analysis import harness_error_report
from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.experiments import build_experiment_matrix
from repro.core.faults import FaultTarget, FaultType
from repro.core.resilience import (
    BACKOFF_MAX_S,
    JITTER_FRAC,
    NO_RETRY,
    RetryPolicy,
    campaign_fingerprint,
)
from repro.core.results import CampaignResult, ExperimentResult, harness_error_result
from repro.core.tables import harness_error_note, table2_by_duration, table3_by_fault
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


def raise_on_2(spec, config):
    if spec.experiment_id == 2:
        raise RuntimeError("injected boom 2")
    return fake_runner(spec, config)


FLAKY_CALLS = {}


def flaky_runner(spec, config):
    """Fails case 1 twice, then succeeds (serial-only: in-process state)."""
    n = FLAKY_CALLS.get(spec.experiment_id, 0) + 1
    FLAKY_CALLS[spec.experiment_id] = n
    if spec.experiment_id == 1 and n < 3:
        raise RuntimeError("transient flake")
    return fake_runner(spec, config)


def sleepy_runner(spec, config):
    if spec.experiment_id == 1:
        time.sleep(30.0)
    return fake_runner(spec, config)


def exit_runner(spec, config):
    """Case 1 kills its worker process outright (breaks the pool)."""
    if spec.experiment_id == 1:
        os._exit(3)
    return fake_runner(spec, config)


def slow_first_runner(spec, config):
    if spec.experiment_id == 0:
        time.sleep(0.7)
    return fake_runner(spec, config)


# ---------------------------------------------------------- RetryPolicy


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        NO_RETRY.delay_s(0)


def test_retry_policy_delay_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=10.0)
    # Pure function of (attempt, key): identical across calls.
    assert policy.delay_s(1, key=7) == policy.delay_s(1, key=7)
    # Different keys jitter differently.
    assert policy.delay_s(1, key=7) != policy.delay_s(1, key=8)
    # Exponential growth until the cap.
    assert policy.delay_s(2, key=7) > policy.delay_s(1, key=7)
    # 10, 20, then the cap from attempt 3 on, each with jitter on top.
    for attempt in range(1, 6):
        assert policy.delay_s(attempt, key=7) <= BACKOFF_MAX_S * (1.0 + JITTER_FRAC)
    assert policy.delay_s(3, key=7) >= BACKOFF_MAX_S
    # Zero base disables sleeping entirely.
    assert NO_RETRY.delay_s(1, key=0) == 0.0


# ---------------------------------------------------------- fingerprint


def test_fingerprint_ignores_workers_but_not_seed():
    import dataclasses

    specs = small_specs()
    base = campaign_fingerprint(CONFIG, specs)
    assert base == campaign_fingerprint(CONFIG, specs)
    assert base == campaign_fingerprint(
        dataclasses.replace(CONFIG, workers=4), specs
    )
    assert base != campaign_fingerprint(
        dataclasses.replace(CONFIG, base_seed=1), specs
    )
    assert base != campaign_fingerprint(
        dataclasses.replace(CONFIG, scale=0.2), specs
    )
    assert base != campaign_fingerprint(CONFIG, specs[:-1])


# ------------------------------------------------- harness-error records


def test_harness_error_result_shape():
    spec = small_specs()[2]
    record = harness_error_result(spec, RuntimeError("kaput"), attempts=3)
    assert record.is_harness_error
    assert not record.is_gold
    assert not record.completed
    assert record.attempts == 3
    assert "RuntimeError" in record.error and "kaput" in record.error
    assert record.experiment_id == spec.experiment_id


def test_raising_case_degrades_to_harness_error_serial():
    specs = small_specs()
    campaign = run_campaign(
        CONFIG,
        specs=specs,
        runner=raise_on_2,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    assert len(campaign.results) == len(specs)
    errors = campaign.harness_errors
    assert [r.experiment_id for r in errors] == [2]
    assert errors[0].attempts == 2
    assert "injected boom 2" in errors[0].error
    # Harness errors never leak into the paper's statistics.
    assert len(campaign.ok) == len(specs) - 1
    assert all(not r.is_harness_error for r in campaign.gold + campaign.faulty)
    table_labels = {row.label for row in table3_by_fault(campaign)}
    assert "Gyro Min" not in table_labels  # id 2 is the Gyro Min case
    assert table2_by_duration(campaign)  # tables still render
    assert "excluded" in harness_error_note(campaign)
    report = harness_error_report(campaign)
    assert "#2" in report and "injected boom 2" in report


def test_retry_recovers_transient_failure():
    FLAKY_CALLS.clear()
    specs = small_specs()
    campaign = run_campaign(
        CONFIG,
        specs=specs,
        runner=flaky_runner,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    assert not campaign.harness_errors
    by_id = {r.experiment_id: r for r in campaign.results}
    assert by_id[1].attempts == 3  # two flakes + one success
    assert by_id[0].attempts == 1
    assert FLAKY_CALLS[1] == 3


def test_retry_exhaustion_counts_attempts():
    campaign = run_campaign(
        CONFIG,
        specs=small_specs(),
        runner=raise_on_2,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    assert campaign.harness_errors[0].attempts == 3


def test_timeout_enforced_serial():
    campaign = run_campaign(
        CONFIG,
        specs=small_specs(),
        runner=sleepy_runner,
        retry_policy=RetryPolicy(max_attempts=1, timeout_s=0.2),
    )
    errors = campaign.harness_errors
    assert [r.experiment_id for r in errors] == [1]
    assert "wall-clock" in errors[0].error
    assert len(campaign.ok) == 4


# ------------------------------------------------------- parallel chaos


def _parallel_config():
    import dataclasses

    return dataclasses.replace(CONFIG, workers=2)


def test_raising_case_degrades_to_harness_error_parallel():
    specs = small_specs()
    campaign = run_campaign(
        _parallel_config(),
        specs=specs,
        runner=raise_on_2,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    assert len(campaign.results) == len(specs)
    assert [r.experiment_id for r in campaign.harness_errors] == [2]
    assert "injected boom 2" in campaign.harness_errors[0].error


def test_timeout_kills_wedged_worker_parallel():
    specs = small_specs()
    campaign = run_campaign(
        _parallel_config(),
        specs=specs,
        runner=sleepy_runner,
        retry_policy=RetryPolicy(max_attempts=1, timeout_s=1.0),
    )
    errors = campaign.harness_errors
    assert [r.experiment_id for r in errors] == [1]
    assert "wall-clock" in errors[0].error
    # Innocent cases in flight during the teardown still completed.
    assert sorted(r.experiment_id for r in campaign.ok) == [0, 2, 3, 4]


def test_broken_pool_rebuilt_and_offender_excluded():
    specs = small_specs()
    campaign = run_campaign(
        _parallel_config(),
        specs=specs,
        runner=exit_runner,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    errors = campaign.harness_errors
    assert [r.experiment_id for r in errors] == [1]
    assert errors[0].attempts == 2
    # Every innocent case survived the pool breaks.
    assert sorted(r.experiment_id for r in campaign.ok) == [0, 2, 3, 4]


def test_results_spec_ordered_despite_completion_order():
    specs = small_specs()
    campaign = run_campaign(
        _parallel_config(), specs=specs, runner=slow_first_runner
    )
    # Case 0 finishes last but is still reported first.
    assert [r.experiment_id for r in campaign.results] == [
        s.experiment_id for s in specs
    ]


# ------------------------------------------------- config hardening


def test_config_rejects_bad_durations():
    with pytest.raises(ValueError, match="durations_s"):
        CampaignConfig(durations_s=(2.0, -5.0))
    with pytest.raises(ValueError, match="durations_s"):
        CampaignConfig(durations_s=(0.0,))
    with pytest.raises(ValueError, match="durations_s"):
        CampaignConfig(durations_s=())


def test_config_rejects_bad_mission_ids():
    with pytest.raises(ValueError, match="mission_ids"):
        CampaignConfig(mission_ids=(0,))
    with pytest.raises(ValueError, match="mission_ids"):
        CampaignConfig(mission_ids=(1, 11))
    with pytest.raises(ValueError, match="mission_ids"):
        CampaignConfig(mission_ids=())


def test_config_rejects_negative_injection_time():
    with pytest.raises(ValueError, match="injection_time_s"):
        CampaignConfig(injection_time_s=-1.0)
    # Zero and positive remain valid.
    assert CampaignConfig(injection_time_s=0.0).effective_injection_time_s == 0.0


# ------------------------------------------------------- atomic writes


def test_save_campaign_is_atomic(tmp_path, monkeypatch):
    from repro.core import io as campaign_io

    campaign = CampaignResult(
        results=[fake_runner(s, CONFIG) for s in small_specs()],
        scale=0.1,
        injection_time_s=15.0,
    )
    path = tmp_path / "results.json"
    campaign_io.save_campaign(campaign, path)
    original = path.read_text()

    # A crash mid-write (simulated at the atomic rename) must leave the
    # existing file untouched and no temp droppings behind.
    def exploding_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(campaign_io.os, "replace", exploding_replace)
    with pytest.raises(OSError):
        campaign_io.save_campaign(campaign, path)
    monkeypatch.undo()
    assert path.read_text() == original
    assert [p for p in tmp_path.iterdir()] == [path]


def test_save_load_round_trip_with_harness_errors(tmp_path):
    from repro.core.io import load_campaign, save_campaign

    specs = small_specs()
    results = [fake_runner(s, CONFIG) for s in specs[:-1]]
    results.append(harness_error_result(specs[-1], RuntimeError("lost"), 3))
    campaign = CampaignResult(results=results, scale=0.1, injection_time_s=15.0)
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    loaded = load_campaign(path)
    assert loaded.results == campaign.results
    assert len(loaded.harness_errors) == 1
    assert loaded.harness_errors[0].error == "RuntimeError: lost"


def test_load_campaign_accepts_legacy_v1(tmp_path):
    import json

    from repro.core.io import load_campaign

    payload = {
        "schema_version": 1,
        "scale": 0.2,
        "injection_time_s": 20.0,
        "results": [
            {
                "experiment_id": 0,
                "mission_id": 2,
                "fault_label": "Gold Run",
                "fault_type": None,
                "target": None,
                "injection_duration_s": None,
                "outcome": "completed",
                "flight_duration_s": 100.0,
                "distance_km": 1.0,
                "inner_violations": 0,
                "outer_violations": 0,
                "max_deviation_m": 0.5,
            }
        ],
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(payload))
    loaded = load_campaign(path)
    # Every field v1 lacks takes its dataclass default.
    assert loaded.results == [
        ExperimentResult(0, 2, "Gold Run", None, None, None,
                         MissionOutcome.COMPLETED, 100.0, 1.0, 0, 0, 0.5)
    ]
    # A missing field without a default is a torn row, not a default.
    del payload["results"][0]["max_deviation_m"]
    path.write_text(json.dumps(payload))
    with pytest.raises(KeyError):
        load_campaign(path)
