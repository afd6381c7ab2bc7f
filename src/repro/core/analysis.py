"""Higher-level analysis of campaign results.

Beyond the paper's three tables, this module provides:

* **shape checks** against the paper's published orderings
  (:mod:`repro.core.paper_reference`): the one oracle for which
  qualitative findings reproduce. EXPERIMENTS.md publishes their
  rendering on the committed campaign verbatim;
* the redundancy study's rescues and the harness-error report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.faults import FaultTarget, FaultType
from repro.core.metrics import SummaryRow, failure_analysis, summarize
from repro.core.results import CampaignResult, ExperimentResult
from repro.core.tables import ResilienceRow, _fault_label, resilience_comparison


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative finding of the paper and whether we reproduce it."""

    name: str
    description: str
    holds: bool
    detail: str


def _completion(campaign: CampaignResult, label: str) -> float:
    return summarize(label, campaign.by_fault_label(label)).completed_pct


def _component_failure(campaign: CampaignResult, target: str) -> float:
    return failure_analysis(target, campaign.by_target(target)).failed_pct


def check_paper_shapes(campaign: CampaignResult) -> list[ShapeCheck]:
    """Evaluate the paper's headline qualitative findings on a campaign.

    Returns one :class:`ShapeCheck` per finding; EXPERIMENTS.md renders
    these verbatim. The checks intentionally test *orderings*, not
    absolute percentages.

    A check whose input group is missing — a subset campaign, or cases
    excluded as harness errors — degrades to ``holds=False`` with a
    "not evaluable" detail instead of raising, so an incomplete
    campaign still yields a full report.
    """
    checks: list[ShapeCheck] = []

    def add(
        name: str,
        description: str,
        holds: Callable[[], object],
        detail: Callable[[], str],
    ) -> None:
        # ``holds``/``detail`` arrive lazily so a missing result group
        # fails only its own check, not the whole report.
        try:
            holds, detail = bool(holds()), detail()
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            holds, detail = False, f"not evaluable on this campaign: {exc}"
        checks.append(ShapeCheck(name, description, holds, detail))

    def durations() -> list[float]:
        return sorted({r.injection_duration_s for r in campaign.faulty})

    def by_duration() -> dict[float, SummaryRow]:
        return {d: summarize(f"{d} s", campaign.by_duration(d)) for d in durations()}

    def completion_by_duration() -> dict[float, float]:
        return {d: row.completed_pct for d, row in by_duration().items()}

    # 1. Gold baseline is clean.
    add(
        "gold-baseline",
        "Gold runs complete 100% with zero bubble violations",
        lambda: bool(campaign.gold)
        and all(
            r.completed and r.inner_violations == 0 and r.outer_violations == 0
            for r in campaign.gold
        ),
        lambda: f"{sum(r.completed for r in campaign.gold)}/{len(campaign.gold)} completed, "
        f"{sum(r.inner_violations for r in campaign.gold)} inner / "
        f"{sum(r.outer_violations for r in campaign.gold)} outer violations",
    )

    # 2. Longest injections complete least.
    add(
        "duration-severity",
        "30 s injections complete fewer missions than 2 s injections",
        lambda: completion_by_duration()[durations()[-1]]
        <= completion_by_duration()[durations()[0]],
        lambda: f"completion by duration: "
        f"{ {k: round(v, 1) for k, v in completion_by_duration().items()} }",
    )

    # 3. Even the shortest injection fails most missions (paper: 80%).
    add(
        "short-injections-deadly",
        "Even the shortest injections fail the majority of missions",
        lambda: completion_by_duration()[durations()[0]] < 50.0,
        lambda: f"{100 - completion_by_duration()[durations()[0]]:.1f}% "
        f"failed at {durations()[0]} s",
    )

    # 4. Violations grow with duration.
    def viol() -> dict[float, float]:
        return {d: row.inner_violations_avg for d, row in by_duration().items()}

    add(
        "duration-violations",
        "Longest injections produce the most inner-bubble violations",
        lambda: viol()[durations()[-1]] >= viol()[durations()[0]],
        lambda: f"inner violations by duration: "
        f"{ {k: round(v, 2) for k, v in viol().items()} }",
    )

    # 5. Faults cut flights short: the longest injections end sooner
    # than gold on average.
    def mean_flight_s(group: list[ExperimentResult]) -> float:
        return summarize("flight duration", group).duration_avg_s

    add(
        "long-injections-cut-short",
        "30 s injections end flights sooner than gold runs on average",
        lambda: mean_flight_s(campaign.by_duration(durations()[-1]))
        < mean_flight_s(campaign.gold),
        lambda: f"mean flight {mean_flight_s(campaign.by_duration(durations()[-1])):.1f} s "
        f"at {durations()[-1]} s vs gold {mean_flight_s(campaign.gold):.1f} s",
    )

    # 6. Benign accel faults (Zeros/Noise) survive; violent ones do not.
    def acc_benign() -> float:
        return max(_completion(campaign, "Acc Zeros"), _completion(campaign, "Acc Noise"))

    def acc_violent() -> float:
        return max(
            _completion(campaign, "Acc Min"),
            _completion(campaign, "Acc Max"),
            _completion(campaign, "Acc Random"),
        )

    add(
        "acc-zeros-noise-survivable",
        "Acc Zeros/Noise complete far more missions than Acc Min/Max/Random",
        lambda: acc_benign() > acc_violent(),
        lambda: f"benign {acc_benign():.1f}% vs violent {acc_violent():.1f}%",
    )

    # 7. Gyro Zeros beats Gyro Min (the paper's Sec. IV-D observation).
    add(
        "gyro-zeros-vs-min",
        "Zeros are better handled than Min for the gyrometer",
        lambda: _completion(campaign, "Gyro Zeros") > _completion(campaign, "Gyro Min"),
        lambda: f"Gyro Zeros {_completion(campaign, 'Gyro Zeros'):.1f}% vs "
        f"Gyro Min {_completion(campaign, 'Gyro Min'):.1f}%",
    )

    # 8. The violent gyro faults are near-total losses (paper: 0-2.5%).
    def gyro_violent() -> dict[str, float]:
        return {
            label: _completion(campaign, label)
            for label in ("Gyro Min", "Gyro Max", "Gyro Random")
        }

    add(
        "gyro-violent-losses",
        "Gyro Min, Max and Random each complete at most 20% of missions",
        lambda: max(gyro_violent().values()) <= 20.0,
        lambda: " / ".join(f"{k} {v:.1f}%" for k, v in gyro_violent().items()),
    )

    # 9. The most survivable gyro fault flatlines the stream (Zeros or
    # Freeze), rather than injecting a wrong rate.
    def best_gyro() -> tuple[str, float]:
        labels = [_fault_label(FaultTarget.GYRO, ft) for ft in FaultType]
        best = max(labels, key=lambda label: _completion(campaign, label))
        return best, _completion(campaign, best)

    add(
        "gyro-best-row",
        "The most survivable gyro fault is Zeros or Freeze",
        lambda: best_gyro()[0] in ("Gyro Zeros", "Gyro Freeze"),
        lambda: f"best gyro row {best_gyro()[0]} at {best_gyro()[1]:.1f}%",
    )

    # 10. Component criticality ordering: Acc < Gyro < IMU failure rates.
    add(
        "component-ordering",
        "Failure rates order Acc < Gyro < IMU (paper: 73% / 87.5% / 96%)",
        lambda: _component_failure(campaign, "accel")
        < _component_failure(campaign, "gyro")
        < _component_failure(campaign, "imu"),
        lambda: f"Acc {_component_failure(campaign, 'accel'):.1f}% / "
        f"Gyro {_component_failure(campaign, 'gyro'):.1f}% / "
        f"IMU {_component_failure(campaign, 'imu'):.1f}%",
    )

    # 11. Full-IMU faults fail nearly every mission (paper: 96%).
    add(
        "imu-failure-rate",
        "Full-IMU faults fail more than 90% of missions (paper: 96%)",
        lambda: _component_failure(campaign, "imu") > 90.0,
        lambda: f"IMU {_component_failure(campaign, 'imu'):.1f}% failed",
    )

    # 12. IMU faults include total-loss rows (0% completion).
    def imu_rows() -> list[float]:
        return [
            _completion(campaign, _fault_label(FaultTarget.IMU, ft)) for ft in FaultType
        ]

    add(
        "imu-total-loss-rows",
        "Several full-IMU faults produce (near-)total mission loss",
        lambda: sum(1 for pct in imu_rows() if pct <= 5.0) >= 3,
        lambda: f"IMU per-fault completion: {[round(p, 1) for p in imu_rows()]}",
    )

    # 13. Accelerometer faults produce the heaviest violation counts
    # (paper Sec. IV-D: Acc pushes drones out of their bubbles fastest).
    def avg_inner(target: str) -> float:
        return summarize(target, campaign.by_target(target)).inner_violations_avg

    add(
        "acc-heaviest-violations",
        "Accelerometer faults cause more bubble violations than gyro faults",
        lambda: avg_inner("accel") > avg_inner("gyro"),
        lambda: f"avg inner violations: Acc {avg_inner('accel'):.2f} vs "
        f"Gyro {avg_inner('gyro'):.2f}",
    )

    return checks


def redundancy_rescues(
    baseline: CampaignResult, mitigated: CampaignResult
) -> list[ResilienceRow]:
    """The fault rows of :func:`resilience_comparison` whose completion
    share rose with the IMU bank, largest gain first (ties by label)."""
    rows = resilience_comparison(baseline, mitigated)[1:]
    return sorted(
        (row for row in rows if row.completed_delta_pct > 0),
        key=lambda row: (-row.completed_delta_pct, row.label),
    )


def render_rescues(rescues: list[ResilienceRow]) -> str:
    """Human-readable report of what redundancy bought."""
    if not rescues:
        return (
            "Redundancy rescues: none — no fault group completed more "
            "missions with the IMU bank than without"
        )
    lines = [f"Redundancy rescues: {len(rescues)} fault group(s) improved"]
    for r in rescues:
        lines.append(
            f"  {r.label}: completion "
            f"{r.baseline_completed_pct:.1f}% -> {r.mitigated_completed_pct:.1f}%, "
            f"crashes {r.baseline_crashed_pct:.1f}% -> {r.mitigated_crashed_pct:.1f}% "
            f"({r.switchovers} switchover(s))"
        )
    return "\n".join(lines)


def harness_error_report(campaign: CampaignResult) -> str:
    """Human-readable report of cases the *harness* failed to complete.

    Harness errors (a case that raised, hung, or lost its worker and
    exhausted its retries) are excluded from every paper table — they
    describe the infrastructure, not the vehicle — so this report is
    the one place they surface. Re-running with ``resume=True`` against
    the campaign checkpoint retries exactly these cases.
    """
    errors = campaign.harness_errors
    if not errors:
        return "Harness errors: none (all cases produced a mission verdict)"
    lines = [
        f"Harness errors: {len(errors)} case(s) excluded from paper tables"
    ]
    for r in sorted(errors, key=lambda r: r.experiment_id):
        lines.append(
            f"  #{r.experiment_id} mission {r.mission_id} [{r.fault_label}] "
            f"after {r.attempts} attempt(s): {r.error}"
        )
    return "\n".join(lines)


def render_shape_checks(checks: list[ShapeCheck]) -> str:
    """Human-readable report of the shape checks."""
    lines = ["Paper shape checks:"]
    for check in checks:
        mark = "PASS" if check.holds else "FAIL"
        lines.append(f"  [{mark}] {check.name}: {check.description}")
        lines.append(f"         {check.detail}")
    passed = sum(c.holds for c in checks)
    lines.append(f"  {passed}/{len(checks)} qualitative findings reproduced")
    return "\n".join(lines)
