"""Unit tests for the bubble formulas, violation monitor, and conflicts."""


import numpy as np
import pytest

from repro.missions import MissionPlan, Waypoint
from repro.missions.spec import DroneSpec
from repro.uspace import (
    BubbleMonitor,
    BubblePair,
    Conflict,
    ConflictDetector,
    OuterBubble,
    TRACKING_INTERVAL_S,
    inner_bubble_radius,
)


# ---------------------------------------------------------------- Eq. 1


def test_inner_bubble_uses_larger_of_ds_dm():
    # D_s dominates.
    assert inner_bubble_radius(0.6, 1.5, 1.0) == pytest.approx(2.1)
    # D_m dominates.
    assert inner_bubble_radius(0.6, 1.5, 7.0) == pytest.approx(7.6)


def test_inner_bubble_rejects_negative():
    with pytest.raises(ValueError):
        inner_bubble_radius(-0.1, 1.0, 1.0)


# ------------------------------------------------------------- Eqs. 2-3


def test_outer_bubble_floor_is_inner_radius():
    bubble = OuterBubble(inner_radius_m=2.0)
    # Hovering: zero distance covered -> max(1, D) = 1 -> outer = inner.
    assert bubble.update(0.0, 0.0) == pytest.approx(2.0)


def test_outer_bubble_grows_with_anticipated_distance():
    bubble = OuterBubble(inner_radius_m=2.0)
    bubble.update(4.0, 4.0)  # seed: 4 m covered at 4 m/s
    radius = bubble.update(4.0, 4.0)  # steady state: D = 4
    assert radius == pytest.approx(2.0 * 4.0)


def test_outer_bubble_eq2_speed_ratio():
    bubble = OuterBubble(inner_radius_m=1.0)
    bubble.update(2.0, 2.0)  # seed
    radius = bubble.update(4.0, 2.0)  # speed doubled -> D = 2 * (4/2) = 4
    assert radius == pytest.approx(4.0)
    assert bubble.anticipated_distance_m == pytest.approx(4.0)


def test_outer_bubble_risk_factor_scales():
    plain = OuterBubble(inner_radius_m=2.0, risk_factor=1.0)
    risky = OuterBubble(inner_radius_m=2.0, risk_factor=2.0)
    plain.update(3.0, 3.0)
    risky.update(3.0, 3.0)
    assert risky.update(3.0, 3.0) == pytest.approx(2.0 * plain.update(3.0, 3.0))


def test_outer_bubble_rejects_r_below_one():
    with pytest.raises(ValueError):
        OuterBubble(inner_radius_m=2.0, risk_factor=0.5)


def test_outer_bubble_handles_standstill_gracefully():
    bubble = OuterBubble(inner_radius_m=2.0)
    bubble.update(3.0, 3.0)
    bubble.update(0.0, 1.0)  # slowed to a stop
    radius = bubble.update(3.0, 0.0)  # accelerating again from rest
    assert radius >= 2.0  # never below inner


def test_bubble_pair_validation():
    with pytest.raises(ValueError):
        BubblePair(inner_m=3.0, outer_m=2.0)


# ------------------------------------------------------------- Monitor


def make_plan():
    drone = DroneSpec(
        1, "UAV-01", cruise_speed_m_s=4.0, top_speed_m_s=5.0, mass_kg=1.5,
        dimension_m=0.6, safety_distance_m=1.5,
    )
    return MissionPlan(
        mission_id=1,
        drone=drone,
        waypoints=[Waypoint((0.0, 0.0, -15.0)), Waypoint((100.0, 0.0, -15.0))],
    )


def test_monitor_inner_radius_from_eq1():
    mon = BubbleMonitor(make_plan())
    # D_m = 5 m/s * 1 s = 5 > D_s = 1.5 -> inner = 0.6 + 5 = 5.6.
    assert mon.inner_radius_m == pytest.approx(5.6)


def test_monitor_counts_violations_beyond_radius():
    mon = BubbleMonitor(make_plan())
    # On the route: no violation.
    mon.maybe_track(0.0, np.array([50.0, 0.0, -15.0]), airspeed_m_s=4.0)
    # Far off the route: inner violation.
    mon.maybe_track(1.0, np.array([50.0, 30.0, -15.0]), airspeed_m_s=4.0)
    assert mon.counts.inner == 1
    assert mon.counts.tracking_instances == 2
    assert mon.counts.max_deviation_m == pytest.approx(30.0)


def test_monitor_respects_tracking_interval():
    mon = BubbleMonitor(make_plan())
    assert TRACKING_INTERVAL_S == 1.0
    assert mon.maybe_track(0.0, np.zeros(3), 0.0) is not None
    assert mon.maybe_track(0.5, np.zeros(3), 0.0) is None
    assert mon.maybe_track(1.0, np.zeros(3), 0.0) is not None


def test_monitor_outer_violations_subset_of_inner():
    mon = BubbleMonitor(make_plan())
    rng = np.random.default_rng(0)
    for i in range(50):
        offset = rng.uniform(0.0, 40.0)
        mon.maybe_track(float(i), np.array([50.0, offset, -15.0]), airspeed_m_s=4.0)
    assert mon.counts.outer <= mon.counts.inner


def test_monitor_history_records_radii():
    mon = BubbleMonitor(make_plan())
    point = mon.maybe_track(0.0, np.array([0.0, 0.0, -15.0]), airspeed_m_s=4.0)
    assert point.inner_radius_m == mon.inner_radius_m
    assert point.outer_radius_m >= point.inner_radius_m


def test_monitor_validation():
    with pytest.raises(ValueError):
        BubbleMonitor(make_plan(), risk_factor=0.5)


# ------------------------------------------------------------ Conflicts


def test_conflict_detected_on_overlap():
    det = ConflictDetector()
    conflicts = det.check_instant(
        0.0,
        positions={1: np.zeros(3), 2: np.array([3.0, 0.0, 0.0])},
        outer_radii={1: 2.0, 2: 2.0},
    )
    assert len(conflicts) == 1
    assert det.total_conflicts == 1


def test_no_conflict_when_separated():
    det = ConflictDetector()
    conflicts = det.check_instant(
        0.0,
        positions={1: np.zeros(3), 2: np.array([10.0, 0.0, 0.0])},
        outer_radii={1: 2.0, 2: 2.0},
    )
    assert conflicts == []


def test_sustained_overlap_counts_once():
    det = ConflictDetector()
    for t in range(5):
        det.check_instant(
            float(t),
            positions={1: np.zeros(3), 2: np.array([3.0, 0.0, 0.0])},
            outer_radii={1: 2.0, 2: 2.0},
        )
    assert det.total_conflicts == 1


def test_reentry_counts_again():
    det = ConflictDetector()
    near = {1: np.zeros(3), 2: np.array([3.0, 0.0, 0.0])}
    far = {1: np.zeros(3), 2: np.array([50.0, 0.0, 0.0])}
    radii = {1: 2.0, 2: 2.0}
    det.check_instant(0.0, near, radii)
    det.check_instant(1.0, far, radii)
    det.check_instant(2.0, near, radii)
    assert det.total_conflicts == 2


def test_conflict_severity():
    c = Conflict(0.0, 1, 2, distance_m=1.0, required_separation_m=4.0)
    assert c.severity == pytest.approx(0.75)
    zero = Conflict(0.0, 1, 2, distance_m=4.0, required_separation_m=4.0)
    assert zero.severity == 0.0
