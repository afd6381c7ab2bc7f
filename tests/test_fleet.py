"""Vehicles flown as a stage-major fleet equal vehicles flown alone.

:func:`repro.system.fly_fleet` runs each stage of a step over every live
vehicle before the next stage, and a serial campaign flies its cases
that way. Vehicles share no state, so every row, flight log and black
box must be byte-identical to the same case flown on its own; a case
whose stage raises must leave the others untouched and go through the
harness's retry path.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable

import pytest

import repro.core.campaign as campaign
from repro.core.campaign import CampaignConfig, run_campaign, run_experiment
from repro.core.experiments import ExperimentSpec, build_experiment_matrix
from repro.core.faults import FaultScope, FaultSpec, FaultTarget, FaultType
from repro.core.io import CampaignJournal
from repro.core.resilience import RetryPolicy
from repro.core.results import ExperimentResult
from repro.missions.valencia import valencia_missions
from repro.obs import MetricsRegistry, Observer, TraceCollector
from repro.redundancy import RedundancyConfig
from repro.system import Flight, SystemConfig, UavSystem, fly_fleet

#: Two missions with the fault in the climb-out: crash cases end within
#: seconds of it, gold and benign cases fly on to land.
TINY = CampaignConfig(
    scale=0.005, injection_time_s=6.0, durations_s=(2.0,), mission_ids=(1, 2)
)


@pytest.fixture(autouse=True)
def no_held_snapshot(monkeypatch):
    monkeypatch.setattr(campaign, "_snapshot", None)


def matrix(config: CampaignConfig) -> list[ExperimentSpec]:
    return build_experiment_matrix(
        mission_ids=list(config.mission_ids),
        durations_s=config.durations_s,
        injection_time_s=config.effective_injection_time_s,
        base_seed=config.base_seed,
        include_gold=config.include_gold,
        scope=config.fault_scope,
    )


def alone(spec: ExperimentSpec, config: CampaignConfig) -> ExperimentResult:
    """The per-case runner, under a name the serial executor does not
    fly as a fleet."""
    return run_experiment(spec, config)


def without_dir(rows: list[Any]) -> list[Any]:
    """Result rows with each black-box path cut to its file name."""
    return [
        dataclasses.replace(r, blackbox_path=Path(r.blackbox_path).name)
        if r.blackbox_path
        else r
        for r in rows
    ]


# ------------------------------------------------------------ fly_fleet


def vehicle(
    mission_id: int, fault: FaultSpec | None, obs_dir: Path | None = None, bank: bool = False
) -> UavSystem:
    plan = {p.mission_id: p for p in valencia_missions(scale=0.005)}[mission_id]
    obs = None
    if obs_dir is not None:
        obs = Observer(
            registry=MetricsRegistry(),
            blackbox_dir=str(obs_dir),
            blackbox_name=f"box-{mission_id}-{fault.label if fault else 'gold'}.json",
        )
    config = SystemConfig(redundancy=RedundancyConfig(enabled=bank, num_members=3))
    system = UavSystem(plan, config=config, fault=fault, obs=obs)
    system.start_run()
    return system


FAULTS = [
    None,
    FaultSpec(FaultType.MAX, FaultTarget.GYRO, 6.0, 2.0, seed=1),
    FaultSpec(FaultType.NOISE, FaultTarget.ACCEL, 6.0, 2.0, seed=2),
    FaultSpec(FaultType.ZEROS, FaultTarget.IMU, 6.0, 2.0, seed=3),
]


@pytest.mark.parametrize("bank", [False, True], ids=["single-imu", "imu-bank-observer"])
def test_fleet_flies_every_vehicle_as_it_flies_alone(bank, tmp_path):
    """Cases that end at different times, two missions, and (with the
    bank) an observer's black box: rows, flight logs and dumps match."""
    faults = FAULTS
    if bank:
        faults = [f and dataclasses.replace(f, scope=FaultScope.PRIMARY_ONLY) for f in FAULTS]

    def fleet_of(obs_dir: Path) -> list[UavSystem]:
        return [
            vehicle(m, f, obs_dir if bank else None, bank) for m in (1, 2) for f in faults
        ]

    solo = fleet_of(tmp_path / "solo")
    solo_results = [system.finish_run() for system in solo]
    together = fleet_of(tmp_path / "fleet")
    order = [flight.system for flight in fly_fleet(Flight(s) for s in together)]
    fleet_results = [system.end_run() for system in together]

    assert without_dir(fleet_results) == without_dir(solo_results)
    end_times = {r.flight_duration_s for r in fleet_results}
    assert len(end_times) > 2, "the fleet must shrink as cases end"
    # Vehicles leave in the order their flights end.
    ends = [s.physics.time_s for s in order]
    assert ends == sorted(ends)
    for a, b in zip(solo, together):
        assert a.recorder.rows().tobytes() == b.recorder.rows().tobytes()
    if bank:
        solo_boxes = sorted((tmp_path / "solo").iterdir())
        fleet_boxes = sorted((tmp_path / "fleet").iterdir())
        assert solo_boxes and [p.name for p in solo_boxes] == [p.name for p in fleet_boxes]
        for a, b in zip(solo_boxes, fleet_boxes):
            assert a.read_bytes() == b.read_bytes(), a.name


def test_fleet_stops_each_vehicle_at_its_own_time():
    """``until_s`` flights stop where ``fly_until`` stops; the others fly on."""
    times = (3.0, 4.5, None)
    fleet = [vehicle(2, None) for _ in times]
    list(fly_fleet(Flight(s, until_s=t) for s, t in zip(fleet, times)))
    for system, until_s in zip(fleet, times):
        reference = vehicle(2, None)
        if until_s is None:
            reference.finish_run()
        else:
            reference.fly_until(until_s)
        assert system.physics.time_s == reference.physics.time_s
        assert system.recorder.rows().tobytes() == reference.recorder.rows().tobytes()


def test_fleet_keeps_no_flight_it_has_yielded(monkeypatch):
    """A flight the caller drops is freed before the fleet yields the
    next one: one that stops, one that raises, two that stop on the
    same tick, and the last."""
    fail_stage(
        monkeypatch,
        "attitude_loop",
        lambda s: s.plan.mission_id == 1 and s.physics.time_s >= 4.0,
        RuntimeError,  # a class: each raise makes a fresh exception
    )
    flights = [Flight(vehicle(2, None), until_s=t) for t in (3.0, 5.0, 5.0, 7.0)]
    flights.append(Flight(vehicle(1, None)))
    fleet = fly_fleet(iter(flights))
    del flights
    yielded: list[weakref.ref[UavSystem]] = []
    errors = []
    for flight in fleet:
        gc.collect()
        alive = [i for i, ref in enumerate(yielded) if ref() is not None]
        assert alive == [], f"yielded flights {alive} outlive their yield"
        yielded.append(weakref.ref(flight.system))
        errors.append(flight.error is not None)
        del flight
    assert errors == [False, True, False, False, False]


def fail_stage(
    monkeypatch,
    name: str,
    when: Callable[[UavSystem], bool],
    exc: BaseException | type[BaseException],
) -> None:
    """Make stage ``name`` raise ``exc``, instead of running, on every
    call where ``when(system)`` holds."""
    stages = list(UavSystem.STAGES)
    i = [stage.__name__ for stage in stages].index(name)
    stage = stages[i]

    def wrapped(system: UavSystem) -> None:
        if when(system):
            raise exc
        stage(system)

    stages[i] = wrapped
    monkeypatch.setattr(UavSystem, "STAGES", tuple(stages))


def test_a_raising_vehicle_leaves_and_the_others_fly_on(monkeypatch):
    fleet = [vehicle(2, f) for f in FAULTS]
    victim = fleet[0]
    boom = RuntimeError("stage failed")
    fail_stage(
        monkeypatch, "attitude_loop", lambda s: s is victim and s.physics.time_s >= 7.0, boom
    )
    flights = list(fly_fleet(Flight(s) for s in fleet))
    monkeypatch.undo()

    failed = [f for f in flights if f.error is not None]
    assert [f.system for f in failed] == [victim] and failed[0].error is boom
    # It ran no stage after the one that raised: its physics did not
    # advance past the failing tick.
    assert 7.0 <= victim.physics.time_s < 7.0 + 0.011
    for system, fault in zip(fleet[1:], FAULTS[1:]):
        reference = vehicle(2, fault)
        assert system.end_run() == reference.finish_run()
        assert system.recorder.rows().tobytes() == reference.recorder.rows().tobytes()


# ------------------------------------------------------------- campaigns


@pytest.fixture(scope="module")
def two_keys() -> tuple[list[ExperimentSpec], list[ExperimentResult]]:
    """Three mission-1 and four mission-2 cases (two prefix keys) and
    their rows, each case flown alone."""
    specs = matrix(TINY)
    specs = [s for s in specs if s.mission_id == 1][:3] + [
        s for s in specs if s.mission_id == 2
    ][:4]
    return specs, run_campaign(TINY, specs, runner=alone).results


def test_serial_campaign_fleet_equals_cases_flown_alone(monkeypatch, two_keys):
    """Two prefix keys share the first fleet, and the second key's
    prefix rides the snapshot slot into the next fleet, flown once."""
    specs, reference = two_keys
    built: list[int] = []
    prefix_vehicle = campaign._prefix_vehicle

    def counting(spec: ExperimentSpec, config: CampaignConfig) -> UavSystem:
        built.append(spec.mission_id)
        return prefix_vehicle(spec, config)

    monkeypatch.setattr(campaign, "_prefix_vehicle", counting)
    monkeypatch.setattr(campaign, "FLEET_SIZE", 5)
    fleet = run_campaign(TINY, specs)
    assert built == [1, 2]
    assert campaign._snapshot is None
    assert fleet.results == reference


@pytest.mark.parametrize("max_attempts", [2, 1], ids=["retried", "harness-error"])
def test_prefix_that_cannot_be_built_charges_only_its_own_cases(
    monkeypatch, max_attempts, two_keys
):
    specs, reference = two_keys
    boom = RuntimeError("prefix not built")
    left = [1]
    prefix_vehicle = campaign._prefix_vehicle

    def fails_once_for_mission_1(spec: ExperimentSpec, config: CampaignConfig) -> UavSystem:
        if spec.mission_id == 1 and left[0]:
            left[0] -= 1
            raise boom
        return prefix_vehicle(spec, config)

    monkeypatch.setattr(campaign, "_prefix_vehicle", fails_once_for_mission_1)
    policy = RetryPolicy(max_attempts=max_attempts)
    rows = run_campaign(TINY, specs, retry_policy=policy).results
    assert [r.mission_id for r in rows] == [1, 1, 1, 2, 2, 2, 2]
    for row, expected in zip(rows, reference):
        if row.mission_id == 2:
            assert row == expected
        elif max_attempts == 2:
            assert row == dataclasses.replace(expected, attempts=2)
        else:
            assert row.is_harness_error and row.attempts == 1
            assert row.error == "RuntimeError: prefix not built"

    left[0] = 1
    with pytest.raises(RuntimeError) as raised:
        run_experiment(specs[0], TINY)
    assert raised.value is boom
    assert campaign._snapshot is None


def test_mitigated_observed_campaign_fleet_equals_cases_flown_alone(tmp_path):
    config = dataclasses.replace(
        TINY,
        mission_ids=(3,),
        mitigation=True,
        fault_scope=FaultScope.PRIMARY_ONLY,
    )
    specs = matrix(config)[:8]
    fleet = run_campaign(dataclasses.replace(config, obs_dir=str(tmp_path / "fleet")), specs)
    solo = run_campaign(
        dataclasses.replace(config, obs_dir=str(tmp_path / "solo")), specs, runner=alone
    )
    assert without_dir(fleet.results) == without_dir(solo.results)
    fleet_boxes = sorted((tmp_path / "fleet").iterdir())
    solo_boxes = sorted((tmp_path / "solo").iterdir())
    assert fleet_boxes and [p.name for p in fleet_boxes] == [p.name for p in solo_boxes]
    for a, b in zip(fleet_boxes, solo_boxes):
        assert a.read_bytes() == b.read_bytes(), a.name


#: The mission-2 slice that the retry, resume and timeout tests fly.
SLICE = dataclasses.replace(TINY, mission_ids=(2,))


@pytest.fixture(scope="module")
def slice_reference() -> list[ExperimentResult]:
    """The first eight cases of ``SLICE``, each flown alone. The retry,
    resume and timeout tests fly a prefix of these cases and compare."""
    return run_campaign(SLICE, matrix(SLICE)[:8], runner=alone).results


@pytest.mark.parametrize("failures", [1, 2], ids=["retried", "harness-error"])
def test_raising_case_is_retried_or_becomes_a_harness_error(
    monkeypatch, failures, slice_reference
):
    specs = matrix(SLICE)[:5]
    reference = slice_reference[:5]
    victim = specs[3]
    left = [failures]

    def fails(system: UavSystem) -> bool:
        if left[0] and system.fault == victim.fault and system.physics.time_s >= 6.5:
            left[0] -= 1
            return True
        return False

    fail_stage(monkeypatch, "rate_loop", fails, RuntimeError("injected stage failure"))
    policy = RetryPolicy(max_attempts=2)
    rows = run_campaign(SLICE, specs, retry_policy=policy).results
    for row, expected in zip(rows, reference):
        if row.experiment_id != victim.experiment_id:
            assert row == expected
    row = rows[3]
    if failures == 1:
        assert row == dataclasses.replace(reference[3], attempts=2)
    else:
        assert row.is_harness_error and row.attempts == 2
        assert "injected stage failure" in row.error


def test_journal_resumes_after_an_interrupted_fleet(monkeypatch, tmp_path, slice_reference):
    specs = matrix(SLICE)[:8]
    journal_path = str(tmp_path / "journal.jsonl")
    gold = next(s for s in specs if s.fault is None)
    # Interrupt the campaign while the gold case still flies, after the
    # fleet's crash cases have been journalled.
    fail_stage(
        monkeypatch,
        "observe",
        lambda s: s.fault is None and s.physics.time_s >= 12.0,
        KeyboardInterrupt(),
    )
    with pytest.raises(KeyboardInterrupt):
        run_campaign(SLICE, specs, checkpoint_path=journal_path)
    monkeypatch.undo()

    _, partial = CampaignJournal(journal_path).load()
    assert 0 < len(partial) < len(specs)
    assert gold.experiment_id not in partial
    resumed = run_campaign(SLICE, specs, checkpoint_path=journal_path, resume=True)
    assert resumed.results == slice_reference


def test_per_case_timeout_flies_one_case_at_a_time(monkeypatch, slice_reference):
    pools: list[int] = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers: int) -> None:
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    # A timeout sends the serial campaign to a pool of one worker, the
    # one place a timed-out case can be stopped.
    monkeypatch.setattr(campaign, "ProcessPoolExecutor", CountingPool)
    specs = matrix(SLICE)[:3]
    policy = RetryPolicy(max_attempts=1, timeout_s=120.0)
    rows = run_campaign(SLICE, specs, retry_policy=policy).results
    assert pools == [1]
    assert rows == slice_reference[:3]


def test_fleet_campaign_traces_fleet_spans_and_case_points(monkeypatch):
    specs = matrix(SLICE)[:3]
    monkeypatch.setattr(campaign, "FLEET_SIZE", 2)
    obs = Observer(registry=MetricsRegistry(), trace=TraceCollector())
    run_campaign(SLICE, specs, obs=obs)
    events = obs.trace.events
    begins = [e for e in events if e.kind == "B"]
    assert [b.name for b in begins] == ["campaign", "fleet", "fleet"]
    assert [b.attrs["cases"] for b in begins[1:]] == [2, 1]
    done = [e for e in events if e.name == "case.done"]
    assert sorted(e.attrs["experiment_id"] for e in done) == [s.experiment_id for s in specs]
    assert obs.metrics.value("campaign_cases_total", status="ok") == 3.0
