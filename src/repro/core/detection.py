"""Fault-detection latency analysis.

The paper's discussion stresses "the importance of quick detection and
tolerance techniques" and observes that the failsafe takes a minimum of
~1900 ms after the failure condition appears (the redundant-sensor
isolation stage). This module measures, per fault, the actual timeline:

* ``detection_time_s`` — when failure detection first debounced
  (isolation started);
* ``failsafe_time_s`` — when the failsafe action engaged;
* ``loss_time_s`` — when the vehicle crashed, if it beat the failsafe.

Latencies are reported relative to the injection start.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.faults import FaultSpec
from repro.flightstack.failsafe import FailsafeState
from repro.missions.plan import MissionPlan
from repro.system import SystemConfig, UavSystem


@dataclass(frozen=True)
class DetectionRecord:
    """Detection timeline of one faulty run (times relative to injection)."""

    fault_label: str
    outcome: str
    detection_latency_s: float | None
    failsafe_latency_s: float | None
    loss_latency_s: float | None
    #: Which failure-detection condition debounced first ("none" when
    #: detection never fired).
    trigger: str = "none"
    #: What the redundant-sensor isolation stage did.
    isolation_outcome: str = "not_attempted"
    #: Verdict of the last isolation episode (None: never resolved).
    isolation_succeeded: bool | None = None

    @property
    def detected(self) -> bool:
        """True when failure detection reacted to the fault at all."""
        return self.detection_latency_s is not None


def measure_detection(
    plan: MissionPlan,
    fault: FaultSpec,
    config: SystemConfig | None = None,
) -> DetectionRecord:
    """Run one faulty mission and extract its detection timeline."""
    system = UavSystem(plan, config=config, fault=fault)
    system.start_run()

    detection_time: float | None = None
    first_trigger: str = "none"
    while system.flying():
        system.step()
        if (
            detection_time is None
            and system.failsafe.state != FailsafeState.NOMINAL
        ):
            detection_time = system.physics.time_s
            first_trigger = system.failsafe.trigger.value

    outcome = system.commander.outcome.value if system.commander.outcome else "running"
    start = fault.start_time_s

    def latency(t: float | None) -> float | None:
        return None if t is None else max(0.0, t - start)

    crash_time = (
        system.crash_detector.report.time_s if system.crash_detector.report else None
    )
    return DetectionRecord(
        fault_label=fault.label,
        outcome=outcome,
        detection_latency_s=latency(detection_time),
        failsafe_latency_s=latency(system.failsafe.engaged_time_s),
        loss_latency_s=latency(crash_time),
        trigger=first_trigger,
        isolation_outcome=system.failsafe.isolation_outcome.value,
        isolation_succeeded=system.failsafe.isolation_succeeded,
    )


def render_detection_report(records: list[DetectionRecord], title: str) -> str:
    """Fixed-width rendering of detection timelines."""
    lines = [title]
    header = (
        f"{'fault':<18} {'outcome':<10} {'detect (s)':>11} "
        f"{'failsafe (s)':>13} {'loss (s)':>9} {'trigger':<10} "
        f"{'isolation':<13}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        det = f"{r.detection_latency_s:.2f}" if r.detection_latency_s is not None else "-"
        fs = f"{r.failsafe_latency_s:.2f}" if r.failsafe_latency_s is not None else "-"
        loss = f"{r.loss_latency_s:.2f}" if r.loss_latency_s is not None else "-"
        if r.isolation_succeeded is None:
            isolation = r.isolation_outcome
        else:
            isolation = "succeeded" if r.isolation_succeeded else "failed"
        lines.append(
            f"{r.fault_label:<18} {r.outcome:<10} {det:>11} {fs:>13} "
            f"{loss:>9} {r.trigger:<10} {isolation:<13}"
        )
    return "\n".join(lines)
