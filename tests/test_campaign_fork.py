"""Forked cases equal fresh flights.

``run_experiment`` forks every case from the fault-free snapshot of its
mission at the injection time, then arms the case's fault. These tests
fly each case of one mission both ways and require the same row, and
for observed cases a byte-identical black box.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
from pathlib import Path

import pytest

import repro.core.campaign as campaign
from repro.core.campaign import CampaignConfig, _to_result, run_experiment
from repro.core.experiments import ExperimentSpec, build_experiment_matrix
from repro.core.faults import FaultScope, FaultSpec, FaultTarget, FaultType
from repro.core.resilience import RetryPolicy
from repro.core.results import ExperimentResult, harness_error_result
from repro.missions.valencia import valencia_missions
from repro.obs import MetricsRegistry, Observer
from repro.redundancy import RedundancyConfig
from repro.system import SystemConfig, UavSystem

#: A tiny geometry with the fault in the climb-out, so most cases end
#: within seconds of it and no case flies to the hard cap.
TINY = CampaignConfig(
    scale=0.005, injection_time_s=6.0, durations_s=(2.0,), mission_ids=(2,)
)


@pytest.fixture(autouse=True)
def no_held_snapshot(monkeypatch):
    """Each test starts with an empty snapshot slot."""
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


def fresh_result(
    spec: ExperimentSpec, config: CampaignConfig, obs_dir: str | None = None
) -> ExperimentResult:
    """The case flown from t = 0 on a vehicle built with its fault."""
    plan = {p.mission_id: p for p in valencia_missions(scale=config.scale)}
    obs = None
    if obs_dir is not None:
        obs = Observer(
            registry=MetricsRegistry(),
            blackbox_dir=obs_dir,
            blackbox_name=f"blackbox_exp{spec.experiment_id:04d}.json",
        )
    system = UavSystem(
        plan[spec.mission_id],
        config=SystemConfig(
            seed=config.base_seed,
            redundancy=RedundancyConfig(
                enabled=config.mitigation, num_members=config.imu_redundancy
            ),
        ),
        fault=spec.fault,
        obs=obs,
    )
    return _to_result(spec, system.run(), mitigated=config.mitigation)


def without_dir(row: ExperimentResult) -> ExperimentResult:
    name = Path(row.blackbox_path).name if row.blackbox_path else None
    return dataclasses.replace(row, blackbox_path=name)


@pytest.mark.parametrize("mitigated", [False, True], ids=["all-scope", "mitigated-obs"])
def test_every_case_of_a_mission_forks_equal_to_fresh(mitigated, tmp_path):
    config = TINY
    fresh_dir = None
    if mitigated:
        config = dataclasses.replace(
            TINY,
            mitigation=True,
            fault_scope=FaultScope.PRIMARY_ONLY,
            obs_dir=str(tmp_path / "forked"),
        )
        fresh_dir = str(tmp_path / "fresh")
    specs = matrix(config)
    assert len(specs) == 1 + len(FaultType) * len(FaultTarget)
    for spec in specs:
        forked = run_experiment(spec, config)
        fresh = fresh_result(spec, config, fresh_dir)
        assert without_dir(forked) == without_dir(fresh), spec.label
    if mitigated:
        forked_boxes = sorted((tmp_path / "forked").iterdir())
        fresh_boxes = sorted((tmp_path / "fresh").iterdir())
        assert forked_boxes, "no case left a black box"
        assert [p.name for p in forked_boxes] == [p.name for p in fresh_boxes]
        for forked_box, fresh_box in zip(forked_boxes, fresh_boxes):
            assert forked_box.read_bytes() == fresh_box.read_bytes(), forked_box.name


def test_mission_over_before_the_injection_forks_equal_to_fresh():
    config = dataclasses.replace(TINY, injection_time_s=1000.0)
    fault = FaultSpec(FaultType.RANDOM, FaultTarget.GYRO, 1000.0, 2.0, seed=3)
    for spec in (ExperimentSpec(0, 2, None), ExperimentSpec(1, 2, fault)):
        forked = run_experiment(spec, config)
        assert forked == fresh_result(spec, config), spec.label
    key, snapshot = campaign._snapshot
    assert key == campaign.prefix_key(spec, config)
    assert snapshot.commander.terminal
    assert snapshot.physics.time_s < 1000.0


def test_campaign_runs_cases_grouped_by_prefix_key():
    config = dataclasses.replace(TINY, mission_ids=(1, 2))
    specs = matrix(config)
    mission_of = {s.experiment_id: s.mission_id for s in specs}
    order: list[int] = []

    def runner(spec: ExperimentSpec, cfg: CampaignConfig) -> ExperimentResult:
        order.append(spec.experiment_id)
        return harness_error_result(spec, RuntimeError("not flown"), 1)

    # The matrix interleaves the missions; the campaign flies each
    # mission's cases back to back, in id order, and still returns the
    # rows in spec order.
    result = campaign.run_campaign(config, specs=specs, runner=runner)
    assert [r.experiment_id for r in result.results] == [s.experiment_id for s in specs]
    assert order == sorted(order, key=lambda e: (mission_of[e], e))
    assert order != sorted(order)


def test_campaign_leaves_no_snapshot_behind():
    campaign.run_campaign(TINY, specs=matrix(TINY)[:1])
    assert campaign._snapshot is None


def test_timed_out_serial_cases_leave_nothing_behind(tmp_path):
    config = CampaignConfig(
        scale=0.05,
        injection_time_s=8.0,
        durations_s=(2.0,),
        mission_ids=(2,),
        obs_dir=str(tmp_path),
    )
    specs = [
        s for s in matrix(config) if s.label in ("Acc Min", "Gyro Max", "IMU Min")
    ]
    policy = RetryPolicy(max_attempts=1, timeout_s=0.05)
    rows = campaign.run_campaign(config, specs=specs, retry_policy=policy).results
    assert [r.is_harness_error for r in rows] == [True] * 3
    # Whatever the timed-out cases left running has had time to finish.
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=120)
    # A timed-out case is a harness-error row and nothing else: no black
    # box, no snapshot, no vehicle.
    assert list(tmp_path.iterdir()) == []
    assert campaign._snapshot is None
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, UavSystem)]
