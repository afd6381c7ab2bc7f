"""Unit tests for mission plans and the Valencia scenario."""

import math

import numpy as np
import pytest

from repro.missions import (
    MissionPlan,
    Waypoint,
    polyline_length,
    route_polyline,
    valencia_missions,
)
from repro.missions.plan import distance_to_polyline
from repro.missions.spec import DroneSpec, kmh
from repro.uspace import max_track_distance_m


def test_kmh_conversion():
    assert math.isclose(kmh(3.6), 1.0)
    assert math.isclose(kmh(25.0), 6.9444, rel_tol=1e-4)


def test_drone_spec_validation():
    with pytest.raises(ValueError):
        DroneSpec(1, "x", cruise_speed_m_s=0.0, top_speed_m_s=1.0, mass_kg=1.0)
    with pytest.raises(ValueError):
        DroneSpec(1, "x", cruise_speed_m_s=2.0, top_speed_m_s=1.0, mass_kg=1.0)
    with pytest.raises(ValueError):
        DroneSpec(1, "x", cruise_speed_m_s=1.0, top_speed_m_s=2.0, mass_kg=0.0)


def test_max_distance_per_track():
    drone = DroneSpec(1, "x", cruise_speed_m_s=5.0, top_speed_m_s=7.0, mass_kg=1.5)
    # D_m: top speed over the fixed 1 s between tracking instances.
    assert max_track_distance_m(drone.top_speed_m_s) == 7.0


def test_mission_plan_needs_two_waypoints():
    drone = DroneSpec(1, "x", cruise_speed_m_s=3.0, top_speed_m_s=4.0, mass_kg=1.5)
    with pytest.raises(ValueError):
        MissionPlan(1, drone, [Waypoint((0, 0, -15))])


def test_home_and_landing_on_ground():
    plans = valencia_missions(scale=0.2)
    for plan in plans:
        assert plan.home_ned[2] == 0.0
        assert plan.landing_ned[2] == 0.0
        assert np.allclose(plan.home_ned[:2], plan.waypoints[0].array[:2])
        assert np.allclose(plan.landing_ned[:2], plan.waypoints[-1].array[:2])


def test_valencia_has_ten_missions_with_paper_speed_mix():
    plans = valencia_missions()
    assert len(plans) == 10
    speeds = sorted(round(p.drone.cruise_speed_m_s * 3.6) for p in plans)
    assert speeds == [5, 5, 10, 12, 12, 12, 14, 14, 14, 25]


def test_valencia_four_missions_have_turns():
    plans = valencia_missions()
    assert sum(p.has_turns for p in plans) == 4


def test_valencia_cruise_below_ceiling():
    from repro.missions.valencia import CEILING_M

    for plan in valencia_missions():
        assert plan.cruise_altitude_m < CEILING_M


def test_valencia_scale_shrinks_geometry():
    full = valencia_missions(scale=1.0)
    small = valencia_missions(scale=0.1)
    for f, s in zip(full, small):
        assert math.isclose(s.cruise_length_m, f.cruise_length_m * 0.1, rel_tol=1e-6)


def test_valencia_full_scale_duration_near_paper_gold():
    # The paper's gold runs average 491.26 s; the generated scenario
    # should estimate in that neighbourhood at full scale.
    durations = [p.estimated_duration_s() for p in valencia_missions(scale=1.0)]
    avg = sum(durations) / len(durations)
    assert 420.0 < avg < 560.0


def test_valencia_within_operating_area():
    # 25 km^2 zone: everything within ~2.6 km of the origin.
    for plan in valencia_missions(scale=1.0):
        for wp in plan.waypoints:
            assert abs(wp.position_ned[0]) < 2600.0
            assert abs(wp.position_ned[1]) < 2600.0


def test_valencia_scale_validation():
    with pytest.raises(ValueError):
        valencia_missions(scale=0.0)


def test_route_polyline_includes_climb_and_descent():
    plan = valencia_missions(scale=0.2)[0]
    route = route_polyline(plan)
    assert np.allclose(route[0], plan.home_ned)
    assert np.allclose(route[-1], plan.landing_ned)
    assert len(route) == len(plan.waypoints) + 2


def test_polyline_length():
    pts = [np.zeros(3), np.array([3.0, 4.0, 0.0]), np.array([3.0, 4.0, 5.0])]
    assert math.isclose(polyline_length(pts), 10.0)


def test_total_length_adds_vertical_legs():
    plan = valencia_missions(scale=0.2)[0]
    assert math.isclose(
        plan.total_length_m, plan.cruise_length_m + 2 * plan.cruise_altitude_m
    )


def test_distance_to_polyline_on_segment():
    poly = [np.zeros(3), np.array([10.0, 0.0, 0.0])]
    assert distance_to_polyline(np.array([5.0, 3.0, 0.0]), poly) == pytest.approx(3.0)


def test_distance_to_polyline_beyond_endpoint():
    poly = [np.zeros(3), np.array([10.0, 0.0, 0.0])]
    assert distance_to_polyline(np.array([14.0, 3.0, 0.0]), poly) == pytest.approx(5.0)


def test_distance_to_polyline_degenerate_segment():
    poly = [np.zeros(3), np.zeros(3)]
    assert distance_to_polyline(np.array([0.0, 1.0, 0.0]), poly) == pytest.approx(1.0)


def test_waypoint_array_cached():
    # `array` is cached and shared (hot-loop contract): repeated access
    # returns the same object and never re-reads position_ned.
    wp = Waypoint((1.0, 2.0, -3.0))
    arr = wp.array
    assert wp.array is arr
    assert tuple(arr) == (1.0, 2.0, -3.0)
    assert wp.position_ned == (1.0, 2.0, -3.0)
