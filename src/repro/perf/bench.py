"""Observability-overhead gate: ``python -m repro.perf``.

Times a gold-cruise vehicle with the observability plane disabled
against the same vehicle with it fully enabled (metrics + trace +
black-box ring), and fails when the enabled rate is more than
:data:`OBS_OVERHEAD_CEILING` below the disabled one. Campaign
throughput is measured by ``perfbench/``, not here.

This is harness-side tooling: wall-clock reads are fine here (the
simulation itself remains deterministic; reprolint DET002 only fences
the sim/sensors/estimation/control/core layers).
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.perf.fingerprint import build_pinned_system
from repro.system import UavSystem

#: Steps before the timed sections, so both vehicles are airborne with
#: a converged EKF in the cruise phase.
WARMUP_STEPS = 300
#: Steps per timed section; each quartet times four sections.
SECTION_STEPS = 60
QUARTETS = 24
#: Independent estimates per gate run; the verdict reads their median.
ESTIMATES = 5
#: Largest enabled-over-disabled overhead the gate passes. Enabled mode
#: costs ~3-4% of gold cruise (one black-box row per step), so 5% trips
#: on any added per-step obs work without flaking on scheduler noise.
OBS_OVERHEAD_CEILING = 0.05


def _section_time(system: UavSystem, n_steps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n_steps):
        system.step()
    return max(time.perf_counter() - t0, 1e-12)


def _paired_overhead(
    disabled: UavSystem, enabled: UavSystem, n_steps: int, quartets: int
) -> tuple[float, float, float]:
    """Overhead of ``enabled`` over ``disabled`` from interleaved
    quartets; returns ``(disabled_rate, enabled_rate, overhead)``.

    A few-percent instrumentation cost is far below the CPU frequency
    and load drift between distant bench sections, so each quartet
    times the pair back to back in ABBA order (alternating with BAAB so
    neither system systematically owns the first, coldest slot): linear
    drift inside a quartet cancels exactly, and the interquartile mean
    over many short quartets discards scheduler bursts. The overhead is
    not clipped at zero: a negative value means the enabled side timed
    faster, which is noise the reader should see.
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


def run_bench() -> dict[str, Any]:
    """Time :data:`ESTIMATES` disabled/enabled pairs and return the
    gate's report.

    Each estimate flies a fresh pair through the same warm-up and
    sections, so the estimates are independent draws of the same
    quantity. One ABBA/IQM estimate still wanders by a few percent with
    the host's load (twelve single-estimate runs of one tree spread from
    -1.4% to 6.7%), which is as wide as the margin the ceiling allows;
    the gate reads the median estimate, which a single noisy estimate
    cannot move.
    """
    disabled_rates: list[float] = []
    enabled_rates: list[float] = []
    overheads: list[float] = []
    for _ in range(ESTIMATES):
        disabled = build_pinned_system()
        enabled = build_pinned_system(obs=Observer(registry=MetricsRegistry()))
        for _ in range(WARMUP_STEPS):
            disabled.step()
            enabled.step()
        disabled_rate, enabled_rate, overhead = _paired_overhead(
            disabled, enabled, SECTION_STEPS, QUARTETS
        )
        disabled_rates.append(disabled_rate)
        enabled_rates.append(enabled_rate)
        overheads.append(overhead)
    return {
        "steps_per_sec_obs_disabled": round(statistics.median(disabled_rates), 1),
        "steps_per_sec_obs_enabled": round(statistics.median(enabled_rates), 1),
        "obs_overhead_frac": round(statistics.median(overheads), 4),
        "obs_overhead_estimates": [round(o, 4) for o in overheads],
    }


def check_obs_overhead(report: dict[str, Any]) -> bool:
    """True when the report's (median) overhead is at or below the
    ceiling.

    Both rates of every estimate come from interleaved sections of the
    same run, so the comparison is self-normalising and needs no
    cross-run slack.
    """
    return report["obs_overhead_frac"] <= OBS_OVERHEAD_CEILING
