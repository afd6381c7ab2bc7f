"""Bench: raw simulator throughput (not a paper table).

Times the full closed-loop step (physics + sensors + injector + EKF +
control cascade) to document the real-time factor of the substrate the
campaign runs on.

Budget asserts use the *median* round, not the mean — a single
scheduler hiccup in one round must not fail the suite — and the budget
itself is overridable via ``REPRO_BENCH_BUDGET_S`` for slow CI runners
(the fault case gets 1.5x the budget). ``python -m repro.perf`` is the
richer profiling entry point; this file is only the pytest-visible
smoke check.
"""

import copy
import os

from repro import FaultSpec, FaultTarget, FaultType, SystemConfig, UavSystem, valencia_missions

#: Seconds allowed for 100 steps (1 simulated second) in the gold run.
BUDGET_S = float(os.environ.get("REPRO_BENCH_BUDGET_S", "1.0"))


def _stepper(fault=None):
    plan = valencia_missions(scale=0.1)[3]
    system = UavSystem(plan, config=SystemConfig(), fault=fault)
    system.commander.arm_and_takeoff(0.0)
    # Get airborne first so the benched steps are steady-state cruise.
    for _ in range(1000):
        system.step()
    return system


def test_closed_loop_step_rate(benchmark):
    system = _stepper()

    def step_100():
        for _ in range(100):
            system.step()

    benchmark.pedantic(step_100, rounds=20, iterations=1)
    # 100 steps = 1 simulated second; the budget check documents that the
    # simulator is fast enough to run the 850-case campaign. Skipped
    # under --benchmark-disable, where no stats exist.
    if benchmark.enabled:
        assert benchmark.stats.stats.median < BUDGET_S  # faster than real time


def test_closed_loop_step_rate_under_fault(benchmark):
    # Fault onset at warmup end, and every round steps a fresh copy of
    # the vehicle at onset, so each round measures the first second of
    # the active fault response (injector + gated EKF + failsafe +
    # desaturating mixer). A Random IMU fault drives the vehicle terminal
    # within a few seconds, so rounds that continued one vehicle would
    # time cheap post-crash idle steps.
    fault = FaultSpec(FaultType.RANDOM, FaultTarget.IMU, start_time_s=10.0, duration_s=1e6)
    onset = _stepper(fault)

    def step_100(system):
        for _ in range(100):
            system.step()

    benchmark.pedantic(
        step_100, setup=lambda: ((copy.deepcopy(onset),), {}), rounds=3, iterations=1
    )
    probe = copy.deepcopy(onset)
    step_100(probe)
    assert not probe.commander.terminal, probe.commander.phase
    if benchmark.enabled:
        assert benchmark.stats.stats.median < BUDGET_S * 1.5
