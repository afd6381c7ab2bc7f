"""Ablation studies on the design choices DESIGN.md calls out.

Each ablation answers "how much does mechanism X matter?" by re-running
a targeted slice of the fault matrix with the mechanism altered:

* :func:`isolation_time_sweep` — the paper reports failsafe engagement
  takes a minimum of ~1900 ms (redundant-sensor isolation). How does the
  crash-vs-failsafe split move if isolation is faster or slower?
* :func:`gyro_threshold_sweep` — the 60 deg/s failure-detection default:
  stricter vs looser thresholds against a gyro fault slice.
* :func:`fusion_reset_ablation` — disable the EKF's fusion-timeout
  reset: the paper's "Acc Zeros mostly completes" row depends on it.
* :func:`confidence_scheduling_ablation` — disable the degraded-attitude
  gain scheduling: flyable gyro-dead windows become losses.
* :func:`risk_factor_sweep` — the bubble's R factor (Eq. 3): how outer
  violations scale for a fixed set of faulty trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.faults import FaultSpec, FaultTarget, FaultType
from repro.flightstack import MissionOutcome
from repro.missions.valencia import valencia_missions
from repro.system import SystemConfig, UavSystem


@dataclass(frozen=True)
class AblationPoint:
    """One configuration point of an ablation sweep."""

    parameter: str
    value: float | bool
    runs: int
    completed_pct: float
    crash_pct: float
    failsafe_pct: float
    inner_violations_avg: float
    outer_violations_avg: float


def _sweep(
    parameter: str,
    values: tuple[float | bool, ...],
    faults: list[FaultSpec],
    mission_ids: tuple[int, ...],
    scale: float,
    config: Callable[[Any], SystemConfig],
) -> list[AblationPoint]:
    """Fly every (mission, fault) pair under ``config(value)`` for each
    value of ``parameter``; one aggregate point per value."""
    plans = {p.mission_id: p for p in valencia_missions(scale=scale)}
    points = []
    for value in values:
        outcomes = []
        inner = outer = 0
        for mission_id in mission_ids:
            for fault in faults:
                system = UavSystem(plans[mission_id], config=config(value), fault=fault)
                result = system.run()
                outcomes.append(result.outcome)
                inner += result.inner_violations
                outer += result.outer_violations
        if not outcomes:
            raise ValueError("ablation slice produced no runs (empty missions or faults)")
        n = len(outcomes)
        points.append(AblationPoint(
            parameter,
            value,
            n,
            completed_pct=100.0 * sum(o == MissionOutcome.COMPLETED for o in outcomes) / n,
            crash_pct=100.0 * sum(o == MissionOutcome.CRASHED for o in outcomes) / n,
            failsafe_pct=100.0 * sum(
                o in (MissionOutcome.FAILSAFE, MissionOutcome.TIMEOUT) for o in outcomes
            ) / n,
            inner_violations_avg=inner / n,
            outer_violations_avg=outer / n,
        ))
    return points


def _gyro_fault_slice(injection_time_s: float) -> list[FaultSpec]:
    """A severity-diverse gyro slice: benign, mid, violent."""
    return [
        FaultSpec(FaultType.ZEROS, FaultTarget.GYRO, injection_time_s, 10.0, seed=1),
        FaultSpec(FaultType.FREEZE, FaultTarget.GYRO, injection_time_s, 10.0, seed=2),
        FaultSpec(FaultType.RANDOM, FaultTarget.GYRO, injection_time_s, 10.0, seed=3),
        FaultSpec(FaultType.MIN, FaultTarget.GYRO, injection_time_s, 2.0, seed=4),
    ]


def isolation_time_sweep(
    isolation_times_s: tuple[float, ...] = (0.5, 1.9, 4.0),
    mission_ids: tuple[int, ...] = (4,),
    scale: float = 0.12,
    injection_time_s: float = 25.0,
) -> list[AblationPoint]:
    """Sweep the redundant-sensor isolation time before failsafe."""
    return _sweep(
        "fs_isolation_time_s", isolation_times_s, _gyro_fault_slice(injection_time_s),
        mission_ids, scale, lambda isolation: SystemConfig(fs_isolation_time_s=isolation),
    )


def gyro_threshold_sweep(
    thresholds_deg_s: tuple[float, ...] = (30.0, 60.0, 180.0),
    mission_ids: tuple[int, ...] = (4,),
    scale: float = 0.12,
    injection_time_s: float = 25.0,
) -> list[AblationPoint]:
    """Sweep the FD gyro-rate threshold (the paper's 60 deg/s default)."""
    return _sweep(
        "fd_gyro_rate_deg_s", thresholds_deg_s, _gyro_fault_slice(injection_time_s),
        mission_ids, scale,
        lambda threshold: SystemConfig(fd_gyro_rate_threshold_rad_s=math.radians(threshold)),
    )


def fusion_reset_ablation(
    mission_ids: tuple[int, ...] = (4,),
    scale: float = 0.12,
    injection_time_s: float = 25.0,
) -> list[AblationPoint]:
    """With vs without the EKF fusion-timeout reset, on accel faults."""
    faults = [
        FaultSpec(FaultType.ZEROS, FaultTarget.ACCEL, injection_time_s, 10.0, seed=1),
        FaultSpec(FaultType.FREEZE, FaultTarget.ACCEL, injection_time_s, 10.0, seed=2),
        FaultSpec(FaultType.MAX, FaultTarget.ACCEL, injection_time_s, 5.0, seed=3),
    ]
    return _sweep(
        "fusion_reset", (True, False), faults, mission_ids, scale,
        lambda enabled: SystemConfig(fusion_reset=enabled),
    )


def confidence_scheduling_ablation(
    mission_ids: tuple[int, ...] = (4,),
    scale: float = 0.12,
    injection_time_s: float = 25.0,
) -> list[AblationPoint]:
    """With vs without degraded-attitude gain scheduling, on gyro-dead."""
    faults = [
        FaultSpec(FaultType.ZEROS, FaultTarget.GYRO, injection_time_s, 5.0, seed=1),
        FaultSpec(FaultType.FREEZE, FaultTarget.GYRO, injection_time_s, 5.0, seed=2),
    ]
    return _sweep(
        "confidence_scheduling", (True, False), faults, mission_ids, scale,
        lambda enabled: SystemConfig(confidence_scheduling=enabled),
    )


def risk_factor_sweep(
    risk_factors: tuple[float, ...] = (1.0, 1.5, 2.0),
    mission_ids: tuple[int, ...] = (4,),
    scale: float = 0.12,
    injection_time_s: float = 25.0,
) -> list[AblationPoint]:
    """Sweep R in Eq. 3: larger R grows the outer bubble and therefore
    reduces outer violations for identical flown trajectories."""
    fault = FaultSpec(FaultType.ZEROS, FaultTarget.ACCEL, injection_time_s, 10.0, seed=1)
    return _sweep(
        "risk_factor_R", risk_factors, [fault], mission_ids, scale,
        lambda risk: SystemConfig(risk_factor=risk),
    )


def render_ablation(points: list[AblationPoint], title: str) -> str:
    """Fixed-width rendering of one ablation sweep."""
    lines = [title]
    header = (
        f"{'value':>10} {'runs':>5} {'completed':>10} {'crash':>8} "
        f"{'failsafe':>9} {'inner':>7} {'outer':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        lines.append(
            f"{str(p.value):>10} {p.runs:>5} {p.completed_pct:>9.1f}% "
            f"{p.crash_pct:>7.1f}% {p.failsafe_pct:>8.1f}% "
            f"{p.inner_violations_avg:>7.2f} {p.outer_violations_avg:>7.2f}"
        )
    return "\n".join(lines)
