"""The paper's trajectory figures (Figs. 3-5) as runnable scenarios.

Each figure in the paper shows one mission's planned route versus the
flown trajectory under a specific 30 s injection:

* **Fig. 3** — Fixed (random constant) value into the accelerometer of
  the fastest drone (25 km/h), mid-leg: drone leaves the trajectory and
  crashes.
* **Fig. 4** — Random values into the gyrometer just before a waypoint
  of a turning mission: reaches the waypoint but cannot stabilise for
  the turn; failsafe engages.
* **Fig. 5** — Random values into the whole IMU before a waypoint:
  fast, forceful crash.

:func:`run_figure_scenario` executes the scenario and returns both the
planned route and the flown (true and estimated) trajectories;
:func:`render_ascii_trajectory` draws a terminal top-down plot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.campaign import CampaignConfig
from repro.core.faults import FaultSpec, FaultTarget, FaultType
from repro.flightstack.commander import MissionOutcome
from repro.missions.plan import route_polyline
from repro.missions.valencia import valencia_missions
from repro.obs.canvas import AsciiCanvas
from repro.system import SystemConfig, UavSystem


@dataclass(frozen=True)
class FigureScenario:
    """Recipe for one paper figure."""

    name: str
    mission_id: int
    fault_type: FaultType
    target: FaultTarget
    duration_s: float
    description: str


#: Mission 10 is the 25 km/h drone; missions 3/7/10 have turning points.
FIGURE_3 = FigureScenario(
    name="fig3",
    mission_id=10,
    fault_type=FaultType.FIXED,
    target=FaultTarget.ACCEL,
    duration_s=30.0,
    description="Fixed value in Acc for 30 s on the fastest drone - crash",
)
FIGURE_4 = FigureScenario(
    name="fig4",
    mission_id=3,
    fault_type=FaultType.RANDOM,
    target=FaultTarget.GYRO,
    duration_s=30.0,
    description="Random values in Gyro for 30 s before a waypoint - failsafe",
)
FIGURE_5 = FigureScenario(
    name="fig5",
    mission_id=7,
    fault_type=FaultType.RANDOM,
    target=FaultTarget.IMU,
    duration_s=30.0,
    description="Random values in IMU for 30 s - fast forceful crash",
)


@dataclass
class FigureResult:
    """Data series behind one trajectory figure."""

    scenario: FigureScenario
    outcome: MissionOutcome
    route_ned: np.ndarray
    flown_true_ned: np.ndarray
    flown_est_ned: np.ndarray
    times_s: np.ndarray
    injection_start_s: float
    injection_end_s: float
    flight_duration_s: float


def run_figure_scenario(
    scenario: FigureScenario,
    scale: float = 1.0,
    injection_time_s: float | None = None,
    seed: int = 0,
) -> FigureResult:
    """Execute a figure scenario and collect its trajectory data."""
    plans = {p.mission_id: p for p in valencia_missions(scale=scale)}
    plan = plans[scenario.mission_id]
    if injection_time_s is None:
        injection_time_s = CampaignConfig(scale=scale).effective_injection_time_s
    fault = FaultSpec(
        fault_type=scenario.fault_type,
        target=scenario.target,
        start_time_s=injection_time_s,
        duration_s=scenario.duration_s,
        seed=seed,
    )
    system = UavSystem(plan, config=SystemConfig(seed=seed), fault=fault)
    result = system.run()
    route = np.vstack(route_polyline(plan))
    rec = system.recorder
    return FigureResult(
        scenario=scenario,
        outcome=result.outcome,
        route_ned=route,
        flown_true_ned=np.column_stack([rec.column(f"truth_pos_{a}") for a in "ned"]),
        flown_est_ned=np.column_stack([rec.column(f"est_pos_{a}") for a in "ned"]),
        times_s=rec.column("time_s"),
        injection_start_s=fault.start_time_s,
        injection_end_s=fault.end_time_s,
        flight_duration_s=result.flight_duration_s,
    )


def render_ascii_trajectory(result: FigureResult, width: int = 72, height: int = 24) -> str:
    """Top-down (north-east) ASCII plot: route ``.``, flown ``*``,
    injection window ``#``, end point ``X``."""
    route = result.route_ned
    flown = result.flown_true_ned
    if flown.shape[0] == 0:
        return "(no trajectory recorded)"
    canvas = AsciiCanvas(
        np.concatenate([route[:, 1], flown[:, 1]]),
        np.concatenate([route[:, 0], flown[:, 0]]),
        width,
        height,
    )
    for i in range(len(route) - 1):
        for t in np.linspace(0.0, 1.0, 40):
            p = route[i] * (1 - t) + route[i + 1] * t
            canvas.plot(p[1], p[0], ".")
    in_window = (result.times_s >= result.injection_start_s) & (
        result.times_s <= result.injection_end_s
    )
    for point, faulted in zip(flown, in_window):
        canvas.plot(point[1], point[0], "#" if faulted else "*")
    canvas.plot(flown[-1][1], flown[-1][0], "X")

    legend = (
        f"{result.scenario.description}\n"
        f"outcome: {result.outcome.value}, duration {result.flight_duration_s:.1f} s  "
        f"(route '.', flown '*', injected '#', end 'X')"
    )
    return canvas.render() + "\n" + legend
