"""Integration tests for the campaign runner and figures."""

import pytest

from repro import CampaignConfig, run_campaign, run_experiment
from repro.core.experiments import ExperimentSpec, build_experiment_matrix
from repro.core.faults import FaultSpec, FaultTarget, FaultType
from repro.core.figures import (
    FIGURE_3,
    FIGURE_4,
    FIGURE_5,
    render_ascii_trajectory,
    run_figure_scenario,
)
from repro.flightstack.commander import MissionOutcome
from repro.missions.plan import distance_to_polyline
from repro.missions.valencia import valencia_missions
from tests.configs import TINY


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(scale=0.0)
    with pytest.raises(ValueError):
        CampaignConfig(workers=0)


def test_effective_injection_time_scales():
    assert CampaignConfig(scale=1.0).effective_injection_time_s == 90.0
    assert CampaignConfig(scale=0.5).effective_injection_time_s == 45.0
    # Floor keeps the injection after the takeoff transient.
    assert CampaignConfig(scale=0.01).effective_injection_time_s == 20.0
    assert CampaignConfig(injection_time_s=33.0).effective_injection_time_s == 33.0


def test_single_experiment_gold():
    spec = ExperimentSpec(0, 2, None)
    result = run_experiment(spec, TINY)
    assert result.is_gold
    assert result.completed
    assert result.inner_violations == 0


def test_single_experiment_faulty():
    fault = FaultSpec(FaultType.MIN, FaultTarget.GYRO, 15.0, 2.0, seed=1)
    spec = ExperimentSpec(1, 2, fault)
    result = run_experiment(spec, TINY)
    assert result.fault_label == "Gyro Min"
    assert result.injection_duration_s == 2.0
    assert result.outcome != MissionOutcome.COMPLETED


def test_explicit_specs_subset():
    specs = build_experiment_matrix(
        mission_ids=[2],
        durations_s=(2.0,),
        injection_time_s=15.0,
        fault_types=(FaultType.ZEROS,),
        targets=(FaultTarget.GYRO,),
        include_gold=False,
    )
    campaign = run_campaign(TINY, specs=specs)
    assert len(campaign.results) == 1
    assert campaign.results[0].fault_label == "Gyro Zeros"


FIGURE_SCALE = 0.1


@pytest.fixture(scope="module")
def figures():
    """Each figure scenario flown once, keyed by name."""
    return {
        s.name: run_figure_scenario(s, scale=FIGURE_SCALE, injection_time_s=15.0)
        for s in (FIGURE_3, FIGURE_4, FIGURE_5)
    }


def loss_latency_s(result):
    """Seconds from the injection opening to the end of the flight."""
    return result.times_s[-1] - result.injection_start_s


@pytest.mark.parametrize("scenario", [FIGURE_3, FIGURE_4, FIGURE_5])
def test_figure_scenarios_run(scenario, figures):
    result = figures[scenario.name]
    assert result.flown_true_ned.shape[0] > 10
    assert result.route_ned.shape[1] == 3
    assert result.injection_end_s > result.injection_start_s
    art = render_ascii_trajectory(result)
    assert "outcome" in art
    assert "#" in art or "*" in art

    # The paper's outcome for each figure: the mission is lost.
    assert result.outcome != MissionOutcome.COMPLETED
    assert loss_latency_s(result) > 0.0
    if scenario is FIGURE_3:
        # The vehicle physically leaves its route before it is lost.
        route = list(result.route_ned)
        assert max(distance_to_polyline(p, route) for p in result.flown_true_ned) > 5.0
    elif scenario is FIGURE_4:
        # Lost on a turning mission, as in the figure.
        assert result.outcome in (MissionOutcome.FAILSAFE, MissionOutcome.CRASHED)
        plans = {p.mission_id: p for p in valencia_missions(scale=FIGURE_SCALE)}
        assert plans[scenario.mission_id].has_turns
    else:
        # Lost within the injection window, and no more than 5 s after
        # the accelerometer-only loss of Fig. 3.
        assert loss_latency_s(result) < scenario.duration_s
        assert loss_latency_s(result) <= loss_latency_s(figures[FIGURE_3.name]) + 5.0


def test_figure_mission_choices_match_paper():
    # Fig. 3 uses the fastest drone (25 km/h -> mission 10).
    assert FIGURE_3.mission_id == 10
    assert FIGURE_3.target is FaultTarget.ACCEL
    # Figs. 4 and 5 inject before waypoints on turning missions.
    assert FIGURE_4.target is FaultTarget.GYRO
    assert FIGURE_5.target is FaultTarget.IMU
    assert all(s.duration_s == 30.0 for s in (FIGURE_3, FIGURE_4, FIGURE_5))
