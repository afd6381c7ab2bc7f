"""Tests for the redundant-IMU subsystem: scope, bank, voter, recovery.

Covers the four layers of the redundancy stack plus the two
end-to-end acceptance criteria of the redundancy PR:

* ``FaultScope`` semantics and serialization round-trip;
* ``ImuBank`` member seeding (member 0 must be bit-identical to the
  legacy single IMU) and per-member injection;
* the debounced median :class:`~repro.redundancy.voter.Voter`,
  including a hypothesis property: with a minority of corrupted
  members, the voter never prefers a corrupted member over a clean one;
* :class:`~repro.redundancy.recovery.RedundancyManager` switchover /
  exhaustion / degraded-fallback state machine;
* the failsafe's isolation-outcome reporting (window restart on
  switchover, success on recovery, failure on engagement);
* a golden campaign proving ``FaultScope.ALL`` (the default) is
  bit-identical to the pre-redundancy code, and a deterministic
  crash-to-completed rescue under ``PRIMARY_ONLY`` + mitigation.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.experiments import build_experiment_matrix
from repro.core.faults import FaultScope, FaultSpec, FaultTarget, FaultType
from repro.core.results import fault_spec_from_dict, fault_spec_to_dict
from repro.estimation.health import EstimatorHealth
from repro.flightstack import FailsafeEngine, FailsafeState
from repro.flightstack.params import FS_ISOLATION_TIME_S
from repro.flightstack.failsafe import IsolationOutcome
from repro.redundancy import (
    MEMBER_SEED_STRIDE,
    ImuBank,
    RedundancyConfig,
    RedundancyManager,
    RecoveryState,
    Voter,
)
from repro.sensors.imu import ImuSample
from tests.configs import TINY
from tests.test_property_inplace_math import naive_imu, naive_imu_sample

GOLDEN = Path(__file__).parent / "data" / "golden_tiny_campaign.json"

FORCE = np.array([0.1, -0.2, -9.81])
RATE = np.array([0.02, -0.01, 0.005])


def sample_at(accel, gyro, t=0.0):
    return ImuSample(time_s=t, accel=np.asarray(accel, float), gyro=np.asarray(gyro, float))


def spec(scope=FaultScope.ALL, members=(), fault_type=FaultType.FIXED,
         target=FaultTarget.IMU):
    return FaultSpec(fault_type, target, 10.0, 5.0, seed=3,
                     scope=scope, scope_members=members)


# -- FaultScope ------------------------------------------------------


def test_scope_all_affects_every_member():
    s = spec(FaultScope.ALL)
    assert all(s.affects_member(k) for k in range(5))


def test_scope_primary_only_affects_member_zero():
    s = spec(FaultScope.PRIMARY_ONLY)
    assert s.affects_member(0)
    assert not any(s.affects_member(k) for k in range(1, 5))


def test_scope_members_affects_the_listed_subset():
    s = spec(FaultScope.MEMBERS, members=(1, 2))
    assert [s.affects_member(k) for k in range(4)] == [False, True, True, False]


def test_scope_members_requires_a_member_list():
    with pytest.raises(ValueError):
        spec(FaultScope.MEMBERS)
    with pytest.raises(ValueError):
        spec(FaultScope.ALL, members=(1,))


def test_fault_spec_scope_round_trips_through_serialization():
    s = spec(FaultScope.MEMBERS, members=(0, 2))
    assert fault_spec_from_dict(fault_spec_to_dict(s)) == s


def test_fault_spec_from_dict_defaults_to_all_scope():
    # Pre-redundancy payloads (schema v1/v2) carry no scope keys.
    payload = fault_spec_to_dict(spec())
    del payload["scope"], payload["scope_members"]
    restored = fault_spec_from_dict(payload)
    assert restored.scope is FaultScope.ALL
    assert restored.scope_members == ()


# -- ImuBank ---------------------------------------------------------


def test_bank_member_zero_is_bit_identical_to_legacy_imu():
    bank = ImuBank(None, num_members=3, base_seed=42)
    legacy = naive_imu(seed=42)
    for i in range(20):
        t = i * 0.01
        samples = bank.sample(t, FORCE, RATE, 0.01)
        ref = naive_imu_sample(legacy, t, FORCE, RATE, 0.01)
        assert np.array_equal(samples[0].accel, ref.accel)
        assert np.array_equal(samples[0].gyro, ref.gyro)


def test_bank_members_have_independent_noise_streams():
    bank = ImuBank(None, num_members=3, base_seed=42)
    samples = bank.sample(0.0, FORCE, RATE, 0.01)
    assert not np.array_equal(samples[0].accel, samples[1].accel)
    assert not np.array_equal(samples[1].gyro, samples[2].gyro)


def test_bank_seed_stride_matches_contract():
    bank = ImuBank(None, num_members=2, base_seed=7)
    twin = naive_imu(seed=7 + MEMBER_SEED_STRIDE)
    got = bank.sample(0.0, FORCE, RATE, 0.01)[1]
    ref = naive_imu_sample(twin, 0.0, FORCE, RATE, 0.01)
    assert np.array_equal(got.accel, ref.accel)


def test_bank_primary_only_fault_corrupts_only_member_zero():
    s = spec(FaultScope.PRIMARY_ONLY, fault_type=FaultType.ZEROS)
    bank = ImuBank(s, num_members=3, base_seed=1)
    inside = s.start_time_s + 1.0
    assert bank.corrupted_members(inside) == (0,)
    samples = bank.sample(inside, FORCE, RATE, 0.01)
    assert np.allclose(samples[0].accel, 0.0)
    assert not np.allclose(samples[1].accel, 0.0)
    assert bank.corrupted_members(s.start_time_s - 1.0) == ()


def test_bank_injector_seeds_are_member_unique():
    s = spec(FaultScope.ALL, fault_type=FaultType.RANDOM)
    bank = ImuBank(s, num_members=3, base_seed=1)
    inside = s.start_time_s + 1.0
    samples = bank.sample(inside, FORCE, RATE, 0.01)
    # RANDOM replaces the signal with seeded noise; distinct behaviour
    # seeds per member must give distinct corrupted streams.
    assert not np.array_equal(samples[0].accel, samples[1].accel)
    assert not np.array_equal(samples[1].accel, samples[2].accel)


def test_redundancy_config_validation():
    with pytest.raises(ValueError):
        RedundancyConfig(enabled=True, num_members=1)
    with pytest.raises(ValueError):
        RedundancyConfig(num_members=0)


# -- Voter -----------------------------------------------------------


def clean_bank_samples(n=3):
    return [sample_at([0.0, 0.0, -9.81], [0.0, 0.0, 0.0]) for _ in range(n)]


def corrupted_bank_samples(bad_index, offset=50.0, n=3):
    samples = clean_bank_samples(n)
    bad = samples[bad_index]
    samples[bad_index] = sample_at(bad.accel + offset, bad.gyro, bad.time_s)
    return samples


def test_voter_clean_bank_is_healthy():
    voter = Voter(num_members=3)
    report = voter.update(clean_bank_samples(), dt=0.01)
    assert report.unhealthy == (False, False, False)
    assert report.healthy_members == (0, 1, 2)


def test_voter_mismatch_needs_debounce():
    voter = Voter(num_members=3)
    report = voter.update(corrupted_bank_samples(1), dt=0.01)
    assert report.mismatched[1] and not report.unhealthy[1]
    for _ in range(20):
        report = voter.update(corrupted_bank_samples(1), dt=0.01)
    assert report.unhealthy[1]
    assert report.healthy_members == (0, 2)


def test_voter_readmission_is_slower_than_flagging():
    voter = Voter(num_members=3)
    for _ in range(20):  # past the 0.15 s mismatch debounce
        voter.update(corrupted_bank_samples(2), dt=0.01)
    report = voter.update(clean_bank_samples(), dt=0.01)
    assert report.unhealthy[2]  # one clean tick is not re-admission
    for _ in range(30):
        report = voter.update(clean_bank_samples(), dt=0.01)
    assert report.unhealthy[2]  # 0.3 s clean: still flagged
    for _ in range(25):
        report = voter.update(clean_bank_samples(), dt=0.01)
    assert not report.unhealthy[2]  # past 0.5 s: re-admitted


def test_voter_preferred_member_excludes_and_breaks_ties_low():
    voter = Voter(num_members=3)
    report = voter.update(clean_bank_samples(), dt=0.01)
    assert report.preferred_member() == 0
    assert report.preferred_member(exclude={0}) == 1
    assert report.preferred_member(exclude={0, 1, 2}) is None


def test_voter_rejects_wrong_sample_count_and_bad_dt():
    voter = Voter(num_members=3)
    with pytest.raises(ValueError):
        voter.update(clean_bank_samples(2), dt=0.01)
    with pytest.raises(ValueError):
        voter.update(clean_bank_samples(3), dt=0.0)


finite = st.floats(-50.0, 50.0, allow_nan=False)
triads = st.builds(lambda x, y, z: np.array([x, y, z]), finite, finite, finite)


@given(
    base_accel=triads,
    base_gyro=st.builds(lambda x, y, z: np.array([x, y, z]) * 0.05,
                        finite, finite, finite),
    bad_index=st.integers(0, 2),
    accel_offset=st.floats(10.0, 500.0),
    gyro_offset=st.floats(1.0, 30.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_voter_never_prefers_a_corrupted_minority_member(
    base_accel, base_gyro, bad_index, accel_offset, gyro_offset, seed
):
    """With one corrupted member out of three, the median is formed
    from healthy streams, so after the debounce the corrupted member is
    unhealthy and never preferred while a clean candidate exists."""
    rng = np.random.default_rng(seed)
    voter = Voter(num_members=3)
    report = None
    for _ in range(30):  # 0.3 s at 100 Hz: past the 0.15 s debounce
        samples = []
        for i in range(3):
            accel = base_accel + rng.normal(scale=0.05, size=3)
            gyro = base_gyro + rng.normal(scale=0.005, size=3)
            if i == bad_index:
                accel = accel + accel_offset
                gyro = gyro + gyro_offset
            samples.append(sample_at(accel, gyro))
        report = voter.update(samples, dt=0.01)
    assert report.unhealthy[bad_index]
    for exclude in (set(), {(bad_index + 1) % 3}):
        preferred = report.preferred_member(exclude=exclude)
        assert preferred is not None
        assert preferred != bad_index


# -- RedundancyManager -----------------------------------------------


def test_disabled_manager_is_a_passthrough():
    manager = RedundancyManager(num_members=1, enabled=False)
    samples = [sample_at([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])]
    selection = manager.select(0.0, samples, 0.01, isolating=True)
    assert selection.sample is samples[0]
    assert selection.state is RecoveryState.NOMINAL
    assert not selection.switched and not selection.exhausted


def run_manager(manager, make_samples, ticks, isolating, t0=0.0):
    selection = None
    for i in range(ticks):
        selection = manager.select(t0 + i * 0.01, make_samples(), 0.01, isolating)
    return selection


def test_manager_does_not_switch_outside_isolation():
    manager = RedundancyManager(num_members=3, enabled=True)
    sel = run_manager(manager, lambda: corrupted_bank_samples(0), 50, isolating=False)
    assert manager.primary == 0
    assert sel.state is RecoveryState.NOMINAL
    assert not manager.events


def test_manager_switches_away_from_unhealthy_primary_when_isolating():
    manager = RedundancyManager(num_members=3, enabled=True)
    run_manager(manager, lambda: corrupted_bank_samples(0), 50, isolating=False)
    switched_ticks = []
    for i in range(10):
        sel = manager.select(1.0 + i * 0.01, corrupted_bank_samples(0), 0.01,
                             isolating=True)
        if sel.switched:
            switched_ticks.append(i)
    assert switched_ticks == [0]  # edge-triggered, exactly once
    assert manager.primary != 0
    assert manager.state is RecoveryState.SWITCHED
    assert manager.failed_members == {0}
    assert len(manager.events) == 1
    assert manager.events[0].from_member == 0


def all_corrupted_samples():
    # Three mutually disagreeing streams: every member mismatches the
    # bank median, so no healthy candidate exists.
    return [
        sample_at([100.0, 0.0, 0.0], [10.0, 0.0, 0.0]),
        sample_at([0.0, 100.0, 0.0], [0.0, 10.0, 0.0]),
        sample_at([0.0, 0.0, 100.0], [0.0, 0.0, 10.0]),
    ]


def test_manager_degrades_to_median_when_no_healthy_member_remains():
    manager = RedundancyManager(num_members=3, enabled=True)
    exhausted_count = 0
    sel = None
    for i in range(60):
        sel = manager.select(i * 0.01, all_corrupted_samples(), 0.01, isolating=True)
        exhausted_count += sel.exhausted
    assert manager.state is RecoveryState.DEGRADED
    assert exhausted_count == 1  # edge-triggered
    report = manager.last_report
    assert np.allclose(sel.sample.accel, report.median_accel)
    assert np.allclose(sel.sample.gyro, report.median_gyro)


def test_manager_leaves_degraded_when_primary_recovers():
    manager = RedundancyManager(num_members=3, enabled=True)
    run_manager(manager, all_corrupted_samples, 60, isolating=True)
    assert manager.degraded
    sel = run_manager(manager, clean_bank_samples, 60, isolating=False)
    assert not manager.degraded
    # No switchover ever succeeded, so recovery lands back on NOMINAL.
    assert sel.state is RecoveryState.NOMINAL


def test_manager_describe_is_total_over_states():
    manager = RedundancyManager(num_members=3, enabled=True)
    for state in RecoveryState:
        manager.state = state
        assert manager.describe()


# -- Failsafe isolation reporting ------------------------------------


HEALTHY = EstimatorHealth(False, False, False)
SPINNING = np.array([2.0, 0.0, 0.0])
CALM = np.zeros(3)


def drive(fs, duration_s, gyro, start=0.0, dt=0.01):
    t = start
    while t < start + duration_s:
        fs.update(t, gyro, 0.0, HEALTHY, in_flight=True)
        t += dt
    return t


def isolating_engine():
    fs = FailsafeEngine()
    t = drive(fs, 1.0, SPINNING)
    assert fs.state == FailsafeState.ISOLATING
    return fs, t


def test_report_isolation_is_ignored_outside_isolating():
    fs = FailsafeEngine()
    fs.report_isolation(0.0, IsolationOutcome.SWITCHED)
    assert fs.isolation_outcome is IsolationOutcome.NOT_ATTEMPTED


def test_switchover_restarts_the_isolation_window():
    fs, t = isolating_engine()
    fs.report_isolation(t, IsolationOutcome.SWITCHED)
    assert fs.isolation_outcome is IsolationOutcome.SWITCHED
    # The fault persists: engagement now happens a full isolation
    # window after the switch, not after the original detection.
    drive(fs, FS_ISOLATION_TIME_S - 0.2, SPINNING, start=t)
    assert fs.state == FailsafeState.ISOLATING
    drive(fs, 0.5, SPINNING, start=t + FS_ISOLATION_TIME_S - 0.2)
    assert fs.state == FailsafeState.ENGAGED
    assert fs.isolation_succeeded is False


def test_condition_clearing_during_isolation_counts_as_success():
    fs, t = isolating_engine()
    fs.report_isolation(t, IsolationOutcome.SWITCHED)
    drive(fs, 1.5, CALM, start=t)
    assert fs.state == FailsafeState.NOMINAL
    assert fs.isolation_succeeded is True
    assert fs.status().isolation_outcome is IsolationOutcome.SWITCHED


def test_exhausted_isolation_still_engages():
    fs, t = isolating_engine()
    fs.report_isolation(t, IsolationOutcome.EXHAUSTED)
    drive(fs, FS_ISOLATION_TIME_S + 1.5, SPINNING, start=t)
    assert fs.state == FailsafeState.ENGAGED
    assert fs.isolation_outcome is IsolationOutcome.EXHAUSTED
    assert fs.isolation_succeeded is False


def test_reentering_isolation_resets_the_outcome():
    fs, t = isolating_engine()
    fs.report_isolation(t, IsolationOutcome.SWITCHED)
    t = drive(fs, 1.5, CALM, start=t)  # recover to NOMINAL
    assert fs.isolation_succeeded is True
    drive(fs, 1.0, SPINNING, start=t)  # second episode begins
    assert fs.state == FailsafeState.ISOLATING
    assert fs.isolation_outcome is IsolationOutcome.NOT_ATTEMPTED
    assert fs.isolation_succeeded is None


# -- End-to-end acceptance -------------------------------------------


def test_all_scope_campaign_matches_pre_redundancy_golden():
    """The acceptance criterion: with the default ALL scope and no
    mitigation, the campaign is bit-identical to the code before the
    redundancy subsystem existed (golden captured at that commit).
    Comparing every pinned field on every run also keeps the campaign
    deterministic."""
    golden = json.loads(GOLDEN.read_text())
    campaign = run_campaign(TINY)
    # 1 mission: 1 gold + 21 faults x 1 duration.
    assert len(campaign.results) == len(golden["results"]) == 22
    assert len(campaign.gold) == 1 and campaign.gold[0].completed
    assert len(campaign.faulty) == 21
    assert len({r.fault_label for r in campaign.faulty}) == 21
    for result, want in zip(campaign.results, golden["results"]):
        got = {
            "experiment_id": result.experiment_id,
            "fault_label": result.fault_label,
            "outcome": result.outcome.value,
            "inner_violations": result.inner_violations,
            "outer_violations": result.outer_violations,
            "flight_duration_s": round(result.flight_duration_s, 6),
            "distance_km": round(result.distance_km, 9),
            "max_deviation_m": round(result.max_deviation_m, 9),
        }
        assert got == want, f"case {result.experiment_id} diverged from golden"


def test_primary_only_mitigation_rescues_a_baseline_crash():
    """The acceptance criterion: a fault that crashes the single-IMU
    baseline completes its mission with the 3-member bank, via a real
    switchover and a successful isolation episode."""
    config = CampaignConfig(
        scale=0.1, mission_ids=(3,), durations_s=(10.0,),
        injection_time_s=15.0, include_gold=False,
        fault_scope=FaultScope.PRIMARY_ONLY,
    )
    specs = [
        s
        for s in build_experiment_matrix(
            mission_ids=[3], durations_s=(10.0,), injection_time_s=15.0,
            base_seed=0, include_gold=False, scope=FaultScope.PRIMARY_ONLY,
        )
        if s.label == "Gyro Fixed Value"
    ]
    assert len(specs) == 1
    baseline = run_campaign(config, specs=specs).results[0]
    mitigated = run_campaign(
        dataclasses.replace(config, mitigation=True), specs=specs
    ).results[0]

    assert baseline.crashed and not baseline.mitigated
    assert mitigated.completed and mitigated.mitigated
    assert mitigated.imu_switchovers == 1
    assert mitigated.isolation_succeeded is True
    assert mitigated.fault_scope == "primary_only"
