"""Unit tests for the fault model (paper Table I) and behaviours."""

import numpy as np
import pytest

from repro.core.faults import (
    FAULT_MODEL_CATALOG,
    FaultBehavior,
    FaultSpec,
    FaultTarget,
    FaultType,
)

RANGE = 10.0


def behavior(kind, seed=0, **kwargs):
    b = FaultBehavior(kind, RANGE, seed, noise_fraction=0.05, **kwargs)
    b.on_activation(np.array([1.0, -2.0, 3.0]))
    return b


def test_zeros_annihilates():
    assert np.allclose(behavior(FaultType.ZEROS).apply(np.ones(3)), 0.0)


def test_freeze_returns_latched_sample():
    b = behavior(FaultType.FREEZE)
    out = b.apply(np.array([9.0, 9.0, 9.0]))
    assert np.allclose(out, [1.0, -2.0, 3.0])
    # Stays frozen on subsequent samples.
    assert np.allclose(b.apply(np.zeros(3)), [1.0, -2.0, 3.0])


def test_freeze_before_activation_raises():
    b = FaultBehavior(FaultType.FREEZE, RANGE, 0, 0.05)
    with pytest.raises(RuntimeError):
        b.apply(np.zeros(3))


def test_fixed_constant_within_range():
    b = behavior(FaultType.FIXED)
    first = b.apply(np.zeros(3))
    second = b.apply(np.ones(3))
    assert np.allclose(first, second)
    assert np.all(np.abs(first) <= RANGE)


def test_fixed_differs_across_seeds():
    a = behavior(FaultType.FIXED, seed=1).apply(np.zeros(3))
    b = behavior(FaultType.FIXED, seed=2).apply(np.zeros(3))
    assert not np.allclose(a, b)


def test_random_in_range_and_varies():
    b = behavior(FaultType.RANDOM)
    outs = [b.apply(np.zeros(3)) for _ in range(10)]
    assert all(np.all(np.abs(o) <= RANGE) for o in outs)
    assert not np.allclose(outs[0], outs[1])


def test_min_max_saturation_values():
    assert np.allclose(behavior(FaultType.MIN).apply(np.zeros(3)), -RANGE)
    assert np.allclose(behavior(FaultType.MAX).apply(np.zeros(3)), RANGE)


def test_noise_centred_near_clean_plus_bias():
    b = behavior(FaultType.NOISE)
    clean = np.array([1.0, 2.0, 3.0])
    outs = np.array([b.apply(clean) for _ in range(500)])
    # Mean = clean + per-window bias; bias bounded by bias fraction.
    mean_offset = outs.mean(axis=0) - clean
    assert np.all(np.abs(mean_offset) <= 0.03 * RANGE + 0.15)
    assert np.all(np.abs(outs) <= RANGE)


def test_noise_is_not_deterministic():
    b = behavior(FaultType.NOISE)
    assert not np.allclose(b.apply(np.zeros(3)), b.apply(np.zeros(3)))


def test_behavior_validation():
    with pytest.raises(ValueError):
        FaultBehavior(FaultType.ZEROS, 0.0, 0, 0.05)


# ----------------------------------------------------------------- FaultSpec


def test_spec_window():
    spec = FaultSpec(FaultType.ZEROS, FaultTarget.ACCEL, start_time_s=90.0, duration_s=10.0)
    assert not spec.is_active(89.99)
    assert spec.is_active(90.0)
    assert spec.is_active(99.99)
    assert not spec.is_active(100.0)
    assert spec.end_time_s == 100.0


def test_spec_labels_match_paper_rows():
    assert FaultSpec(FaultType.FREEZE, FaultTarget.ACCEL, 0.0, 1.0).label == "Acc Freeze"
    assert FaultSpec(FaultType.FIXED, FaultTarget.GYRO, 0.0, 1.0).label == "Gyro Fixed Value"
    assert FaultSpec(FaultType.RANDOM, FaultTarget.IMU, 0.0, 1.0).label == "IMU Random"


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(FaultType.ZEROS, FaultTarget.IMU, start_time_s=-1.0, duration_s=1.0)
    with pytest.raises(ValueError):
        FaultSpec(FaultType.ZEROS, FaultTarget.IMU, start_time_s=0.0, duration_s=0.0)
    with pytest.raises(ValueError):
        FaultSpec(FaultType.NOISE, FaultTarget.IMU, 0.0, 1.0, noise_fraction=0.0)


def test_target_component_flags():
    assert FaultTarget.ACCEL.affects_accel and not FaultTarget.ACCEL.affects_gyro
    assert FaultTarget.GYRO.affects_gyro and not FaultTarget.GYRO.affects_accel
    assert FaultTarget.IMU.affects_accel and FaultTarget.IMU.affects_gyro


# -------------------------------------------------------------- Table I map


def test_catalog_has_fourteen_entries():
    assert len(FAULT_MODEL_CATALOG) == 14


def test_catalog_covers_all_behaviours():
    covered = {b for entry in FAULT_MODEL_CATALOG for b in entry.represented_by}
    assert covered == set(FaultType)


def test_catalog_known_mappings():
    by_name = {e.name: e for e in FAULT_MODEL_CATALOG}
    assert by_name["Acoustic attack"].represented_by == (FaultType.RANDOM,)
    assert by_name["False data injection"].represented_by == (FaultType.FIXED,)
    assert by_name["Constant output"].represented_by == (FaultType.FREEZE,)
    assert FaultType.MIN in by_name["OS system attack"].represented_by


# ---------------------------------------------------- dispatch exhaustiveness


@pytest.mark.parametrize("kind", list(FaultType))
def test_every_fault_type_corrupts_the_sample(kind):
    """Each enum member must reach a real branch in FaultBehavior.apply.

    The corrupted sample differs from the clean input (so no member is
    silently absorbed by a pass-through path) and is a fresh, finite
    3-vector. The clean value sits strictly inside the sensor range and
    away from every saturation/zero value so every behaviour must move
    it.
    """
    current = np.array([4.0, 5.0, -6.0])  # differs from the latched sample
    out = behavior(kind, seed=123).apply(current)
    assert out.shape == (3,)
    assert np.all(np.isfinite(out))
    assert out is not current
    assert not np.allclose(out, current), f"{kind} returned the sample unchanged"
    assert np.all(np.abs(out) <= RANGE + 1e-12)


def test_non_member_fault_type_hits_the_fallback():
    b = behavior(FaultType.ZEROS)
    b.fault_type = "not-a-fault-type"
    with pytest.raises(ValueError, match="unhandled fault type"):
        b.apply(np.ones(3))


# ------------------------------------------------------- spec serialization


def test_fault_spec_round_trips_every_field():
    from repro.core.results import fault_spec_from_dict, fault_spec_to_dict

    spec = FaultSpec(
        fault_type=FaultType.NOISE,
        target=FaultTarget.IMU,
        start_time_s=12.5,
        duration_s=4.0,
        seed=99,
        noise_fraction=0.11,
        noise_bias_fraction=0.07,
    )
    assert fault_spec_from_dict(fault_spec_to_dict(spec)) == spec


def test_fault_spec_serialization_changes_fingerprint():
    """A seed/noise change must alter the campaign fingerprint, or a
    resumed checkpoint could silently mix differently-seeded results."""
    import dataclasses

    from repro.core.campaign import CampaignConfig
    from repro.core.experiments import build_experiment_matrix
    from repro.core.resilience import campaign_fingerprint

    config = CampaignConfig(scale=0.05, mission_ids=(1,), durations_s=(5.0,))
    specs = build_experiment_matrix(
        mission_ids=list(config.mission_ids), durations_s=config.durations_s
    )
    base = campaign_fingerprint(config, specs)
    reseeded = [
        s
        if s.fault is None
        else dataclasses.replace(s, fault=dataclasses.replace(s.fault, seed=s.fault.seed + 1))
        for s in specs
    ]
    assert campaign_fingerprint(config, reseeded) != base
