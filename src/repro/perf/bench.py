"""Closed-loop throughput bench and per-subsystem profile.

``python -m repro.perf`` times the full ``UavSystem.step`` (physics +
wind + IMU bank + injector + EKF + control cascade + surveillance) in
steady-state cruise and during an active IMU fault, measures the
observability overhead, attributes self-time to subsystems with
:mod:`cProfile`, and emits ``BENCH_simulator.json``.

This is harness-side tooling: wall-clock reads are fine here (the
simulation itself remains deterministic; reprolint DET002 only fences
the sim/sensors/estimation/control/core layers).
"""

from __future__ import annotations

import copy
import cProfile
import json
import pstats
import time
from pathlib import Path
from typing import Any

from repro.core.atomicio import atomic_write_text
from repro.core.faults import FaultSpec, FaultTarget, FaultType
from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.perf.fingerprint import build_pinned_system
from repro.system import SystemConfig, UavSystem

#: Steps before any timed section, so every measurement sees the same
#: steady-state cruise regime (airborne, EKF converged, mission phase).
WARMUP_STEPS = 1000
QUICK_WARMUP_STEPS = 300

#: Under-fault rounds: each times one simulated second from a fresh
#: copy of the vehicle at fault onset. A Random IMU fault drives the
#: vehicle terminal within a few seconds, so rounds that continued one
#: vehicle would time cheap post-crash idle steps instead of the
#: injector, gated EKF updates, failsafe, and desaturating mixer.
FAULT_ROUND_STEPS = 100
FAULT_ROUNDS = 3

#: JSON schema tag so downstream regression checks can evolve safely.
BENCH_SCHEMA = 1


def _steps_per_sec(system: UavSystem, n_steps: int, rounds: int = 5) -> float:
    """Median step rate over ``rounds`` timed sections of ``n_steps``.

    The median (not the mean) so a scheduler hiccup in one section
    cannot drag the reported rate — the same policy the pytest bench
    asserts on.
    """
    return _median([n_steps / _section_time(system, n_steps) for _ in range(rounds)])


def fault_onset_system(warmup: int) -> UavSystem:
    """The bench vehicle under a Random IMU fault, stepped to its onset."""
    dt = SystemConfig().physics_dt_s
    fault = FaultSpec(
        FaultType.RANDOM, FaultTarget.IMU, start_time_s=warmup * dt, duration_s=1e6
    )
    system = build_pinned_system(fault)
    for _ in range(warmup):
        system.step()
    return system


def onset_rounds(
    onset: UavSystem, n_steps: int = FAULT_ROUND_STEPS, rounds: int = FAULT_ROUNDS
) -> tuple[float, list[UavSystem]]:
    """Median step rate over ``rounds`` sections that each step a fresh
    deep copy of ``onset`` (copied outside the timed section); also
    returns the stepped copies so callers can check what was timed."""
    vehicles = [copy.deepcopy(onset) for _ in range(rounds)]
    rates = [n_steps / _section_time(vehicle, n_steps) for vehicle in vehicles]
    return _median(rates), vehicles


def _median(rates: list[float]) -> float:
    rates = sorted(rates)
    mid = len(rates) // 2
    if len(rates) % 2:
        return rates[mid]
    return 0.5 * (rates[mid - 1] + rates[mid])


def _section_time(system: UavSystem, n_steps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n_steps):
        system.step()
    return max(time.perf_counter() - t0, 1e-12)


def _paired_overhead(
    disabled: UavSystem, enabled: UavSystem, n_steps: int, quartets: int = 24
) -> tuple[float, float, float]:
    """Overhead of ``enabled`` over ``disabled`` from interleaved
    quartets; returns ``(disabled_rate, enabled_rate, overhead)``.

    A few-percent instrumentation cost is far below the CPU frequency
    and load drift between distant bench sections, so each quartet
    times the pair back to back in ABBA order (alternating with BAAB so
    neither system systematically owns the first, coldest slot): linear
    drift inside a quartet cancels exactly, and the interquartile mean
    over many short quartets discards scheduler bursts. Distant-section
    comparison (e.g. vs the gold section of the same bench run) would
    measure the machine, not the instrumentation.
    """
    overheads: list[float] = []
    dis_total = ena_total = 0.0
    for q in range(quartets):
        first, second = (disabled, enabled) if q % 2 == 0 else (enabled, disabled)
        t_f1 = _section_time(first, n_steps)
        t_s1 = _section_time(second, n_steps)
        t_s2 = _section_time(second, n_steps)
        t_f2 = _section_time(first, n_steps)
        if q % 2 == 0:
            t_dis, t_ena = t_f1 + t_f2, t_s1 + t_s2
        else:
            t_dis, t_ena = t_s1 + t_s2, t_f1 + t_f2
        dis_total += t_dis
        ena_total += t_ena
        overheads.append(t_ena / max(t_dis, 1e-12) - 1.0)
    overheads.sort()
    k = len(overheads) // 4
    core = overheads[k : len(overheads) - k] or overheads
    steps = 2 * quartets * n_steps
    return (
        steps / max(dis_total, 1e-12),
        steps / max(ena_total, 1e-12),
        sum(core) / len(core),
    )


def _subsystem_of(filename: str) -> str:
    """Map a profiled frame's file to its ``repro`` subpackage."""
    parts = Path(filename).parts
    try:
        i = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return "numpy/stdlib"
    if i + 2 < len(parts):
        return parts[i + 1]  # src/repro/<package>/module.py
    return "repro (top-level)"  # src/repro/system.py and friends


def _profile_breakdown(system: UavSystem, n_steps: int) -> dict[str, float]:
    """Fraction of profiled self-time per subsystem, largest first."""
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(n_steps):
        system.step()
    profiler.disable()
    totals: dict[str, float] = {}
    for (filename, _line, _func), entry in pstats.Stats(profiler).stats.items():
        tottime = entry[2]
        key = _subsystem_of(filename)
        totals[key] = totals.get(key, 0.0) + tottime
    grand = max(sum(totals.values()), 1e-12)
    ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
    return {name: t / grand for name, t in ranked}


def run_bench(quick: bool = False) -> dict[str, Any]:
    """Run the full bench suite and return the report dictionary."""
    warmup = QUICK_WARMUP_STEPS if quick else WARMUP_STEPS
    section = 200 if quick else 600
    rounds = 5
    profiled = 300 if quick else 1000

    # Gold-run throughput (the campaign's dominant regime).
    system = build_pinned_system()
    for _ in range(warmup):
        system.step()
    gold_rate = _steps_per_sec(system, section, rounds)
    dt = system.config.physics_dt_s

    # Throughput during an active whole-IMU fault (see FAULT_ROUNDS).
    fault_rate, _ = onset_rounds(fault_onset_system(warmup))

    # Gold cruise with the full observability plane on (metrics +
    # trace + black-box ring): the enabled-mode overhead the obs gate
    # holds to <=3% of the disabled rate. Events are edge-triggered, so
    # in cruise the recurring cost is one black-box row per step. The
    # pair is timed in interleaved ABBA quartets (_paired_overhead).
    obs_disabled = build_pinned_system()
    obs_enabled = build_pinned_system(obs=Observer(registry=MetricsRegistry()))
    for _ in range(warmup):
        obs_disabled.step()
        obs_enabled.step()
    obs_disabled_rate, obs_rate, obs_overhead = _paired_overhead(
        obs_disabled, obs_enabled, 60, quartets=24 if quick else 48
    )

    profile_system = build_pinned_system()
    for _ in range(warmup):
        profile_system.step()
    breakdown = _profile_breakdown(profile_system, profiled)

    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "physics_dt_s": dt,
        "timed_steps": section * rounds,
        "steps_per_sec": round(gold_rate, 1),
        "realtime_factor": round(gold_rate * dt, 2),
        "steps_per_sec_under_fault": round(fault_rate, 1),
        "steps_per_sec_obs_disabled": round(obs_disabled_rate, 1),
        "steps_per_sec_obs_enabled": round(obs_rate, 1),
        "obs_overhead_frac": round(max(0.0, obs_overhead), 4),
        "subsystem_self_time_fractions": {
            name: round(frac, 4) for name, frac in breakdown.items()
        },
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable timing report for the CLI."""
    lines = [
        "closed-loop simulator bench"
        + (" (quick)" if report["quick"] else "")
        + f" — {report['timed_steps']} steps @ dt={report['physics_dt_s']}s",
        f"  steps/sec (gold cruise):   {report['steps_per_sec']:>10.1f}",
        f"  real-time factor:          {report['realtime_factor']:>10.2f}x",
        f"  steps/sec (IMU fault):     {report['steps_per_sec_under_fault']:>10.1f}",
        f"  steps/sec (obs enabled):   {report['steps_per_sec_obs_enabled']:>10.1f}"
        f"  ({report['obs_overhead_frac'] * 100:.1f}% overhead)",
        "  self-time by subsystem:",
    ]
    for name, frac in report["subsystem_self_time_fractions"].items():
        lines.append(f"    {name:<20} {frac * 100:5.1f}%")
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str | Path) -> None:
    """Emit the bench JSON atomically (IO001 contract)."""
    atomic_write_text(path, json.dumps(report, indent=2) + "\n")


def check_regression(
    report: dict[str, Any], baseline_path: str | Path, tolerance: float = 0.2
) -> tuple[bool, str]:
    """Compare ``steps_per_sec`` against a committed baseline file.

    Returns ``(ok, message)``; ``ok`` is False when throughput dropped
    more than ``tolerance`` (fractional) below the baseline. Faster-
    than-baseline runs always pass — the gate is one-sided.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    floor = baseline["steps_per_sec"] * (1.0 - tolerance)
    current = report["steps_per_sec"]
    if current < floor:
        return False, (
            f"throughput regression: {current:.1f} steps/sec is below the "
            f"{floor:.1f} floor ({baseline['steps_per_sec']:.1f} baseline "
            f"- {tolerance:.0%} tolerance)"
        )
    return True, (
        f"throughput OK: {current:.1f} steps/sec vs {baseline['steps_per_sec']:.1f} "
        f"baseline (floor {floor:.1f})"
    )


def check_obs_overhead(
    report: dict[str, Any], tolerance: float = 0.03
) -> tuple[bool, str]:
    """Gate the enabled-observability cost against the disabled rate.

    Both rates come from interleaved sections of the *same* bench run
    (same machine, same load, alternating back-to-back), so the
    comparison is self-normalising — unlike the absolute baseline gate,
    it does not need a generous cross-machine tolerance.
    """
    overhead = report["obs_overhead_frac"]
    enabled = report["steps_per_sec_obs_enabled"]
    disabled = report.get("steps_per_sec_obs_disabled", report["steps_per_sec"])
    if overhead > tolerance:
        return False, (
            f"observability overhead {overhead:.1%} exceeds the "
            f"{tolerance:.0%} budget ({enabled:.1f} steps/sec enabled vs "
            f"{disabled:.1f} disabled)"
        )
    return True, (
        f"observability overhead OK: {overhead:.1%} "
        f"({enabled:.1f} steps/sec enabled vs {disabled:.1f} disabled, "
        f"budget {tolerance:.0%})"
    )
