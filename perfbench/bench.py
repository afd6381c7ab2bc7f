"""One benchmark run: campaign passes, correctness against pins, metrics.

Untraced (``trace=False``): whole campaign passes of the workload's
matrix run back to back until the next one would overrun the run
length; the end-to-end metrics come from their summed wall time. Then
set-up time is measured in fresh interpreters.

Traced (``trace=True``): one untraced pass, then one pass with every
layer wrapped by :class:`~tracing.LayerTracer`. The two passes must
produce the same rows; the per-layer metrics come from the traced one
and the tracing overhead from the pair.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import tracing
from repro.core.campaign import run_campaign
from repro.core.resilience import campaign_fingerprint
from repro.core.results import ExperimentResult
from workloads import PINNED_SEEDS, Workload

BENCH_DIR = Path(__file__).resolve().parent
PIN_DIR = BENCH_DIR / "pins"

#: Row fields compared exactly against the pins. ``blackbox_path`` (a
#: temp path) and ``attempts`` are left out on purpose.
PINNED_FIELDS = (
    "experiment_id",
    "mission_id",
    "fault_label",
    "outcome",
    "flight_duration_s",
    "distance_km",
    "inner_violations",
    "outer_violations",
    "max_deviation_m",
    "imu_switchovers",
    "isolation_succeeded",
)

#: Cold set-ups per run; their median is ``setup_s``.
SETUP_SAMPLES = 5


@dataclass
class Pass:
    """One ``run_campaign`` call over the workload's whole matrix."""

    rows: list[ExperimentResult]
    wall_s: float
    fingerprint: str


def run_pass(
    workload: Workload, base_seed: int, scratch: Path, runner: Any = None
) -> Pass:
    """Run the workload's campaign once, writing only under ``scratch``."""
    scratch.mkdir(parents=True)
    config = workload.config_for(base_seed, obs_dir=str(scratch / "blackboxes"))
    specs = workload.specs(config)
    journal = str(scratch / "journal.jsonl") if workload.journal else None
    start = time.perf_counter()
    result = run_campaign(config, specs, checkpoint_path=journal, runner=runner)
    wall_s = time.perf_counter() - start
    return Pass(result.results, wall_s, campaign_fingerprint(config, specs))


# ------------------------------------------------------------------ pins


def pin_row(row: ExperimentResult) -> dict[str, Any]:
    values = {name: getattr(row, name) for name in PINNED_FIELDS}
    values["outcome"] = row.outcome.value if row.outcome is not None else None
    return values


def pin_path(workload: Workload) -> Path:
    return PIN_DIR / f"{workload.name}.json"


def load_pins(workload: Workload, base_seed: int) -> dict[str, Any]:
    return json.loads(pin_path(workload).read_text())["seeds"][str(base_seed)]


def pins_of(done: Pass) -> dict[str, Any]:
    """The pins a pass's rows would be checked against."""
    return {"fingerprint": done.fingerprint, "rows": [pin_row(row) for row in done.rows]}


def count_failed(done: Pass, pins: dict[str, Any]) -> int:
    """Rows that are harness errors or differ from their pinned row.

    Pins taken for another matrix (a different campaign fingerprint)
    match nothing, so every row counts.
    """
    if pins["fingerprint"] != done.fingerprint:
        return len(done.rows)
    pinned = {p["experiment_id"]: p for p in pins["rows"]}
    return sum(
        row.is_harness_error or pin_row(row) != pinned.get(row.experiment_id)
        for row in done.rows
    )


def write_pins(workload: Workload, scratch: Path) -> None:
    """Fly the workload at every pinned seed and record its rows."""
    seeds = {}
    for base_seed in PINNED_SEEDS:
        done = run_pass(workload, base_seed, scratch / f"pin-{base_seed}")
        if any(row.is_harness_error for row in done.rows):
            raise RuntimeError(f"{workload.name}: harness error while pinning")
        seeds[str(base_seed)] = pins_of(done)
    PIN_DIR.mkdir(exist_ok=True)
    text = json.dumps({"workload": workload.name, "seeds": seeds}, indent=1)
    pin_path(workload).write_text(text + "\n")


# ------------------------------------------------------------- metrics


def setup_seconds(workload: Workload, base_seed: int) -> list[float]:
    """Cold set-up times, each in a fresh interpreter (see setup_probe)."""
    probe = BENCH_DIR / "setup_probe.py"
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(probe), workload.name, str(base_seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus its pool workers.

    Call before any other child process ends: the children's figure is
    the largest single waited-for descendant, taken here as the peak of
    each of the ``workers`` pool processes.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pool_kb = workers * child_kb if workers > 1 else 0
    return (own_kb + pool_kb) / 1024.0


def flight_seconds(rows: list[ExperimentResult]) -> float:
    return sum(row.flight_duration_s for row in rows)


def comparable(row: ExperimentResult) -> ExperimentResult:
    """A row with its black box reduced to the file name."""
    name = os.path.basename(row.blackbox_path) if row.blackbox_path else None
    return dataclasses.replace(row, blackbox_path=name)


def provenance(root: Path, workload: Workload, base_seed: int) -> dict[str, Any]:
    """Where a result came from: source, versions, host and matrix."""
    commit = dirty = None
    if (root / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True, check=True
            ).stdout.strip()

        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    config = workload.config_for(base_seed)
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "base_seed": base_seed,
        "campaign_fingerprint": campaign_fingerprint(config, workload.specs(config)),
    }


# ------------------------------------------------------------------ runs


def run_untraced(
    workload: Workload, base_seed: int, seconds: float, scratch: Path, pins: dict[str, Any]
) -> dict[str, Any]:
    """Passes back to back for ``seconds``; the end-to-end metrics."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        done = run_pass(workload, base_seed, scratch / f"pass-{len(passes)}")
        passes.append(done)
        if time.perf_counter() - start + done.wall_s > seconds:
            break
    rss_mb = peak_rss_mb(workload.config.workers)
    wall_s = sum(p.wall_s for p in passes)
    attempted = sum(len(p.rows) for p in passes)
    failed = sum(count_failed(p, pins) for p in passes)
    setups = setup_seconds(workload, base_seed)
    metrics = {
        "cases_per_s": attempted / wall_s,
        "sim_s_per_s": sum(flight_seconds(p.rows) for p in passes) / wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    units = {"cases_per_s": "1/s", "sim_s_per_s": "s/s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": {
            "pass_wall_s": [p.wall_s for p in passes],
            "setup_samples_s": setups,
        },
    }


def run_traced(
    workload: Workload, base_seed: int, scratch: Path, pins: dict[str, Any]
) -> dict[str, Any]:
    """An untraced and a traced pass; the per-layer metrics."""
    plain = run_pass(workload, base_seed, scratch / "untraced")
    records_dir = scratch / "records"
    records_dir.mkdir(parents=True)
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        before = tracer.snapshot()
        traced = run_pass(
            workload,
            base_seed,
            scratch / "traced",
            runner=tracing.TracedRunner(str(records_dir)),
        )
        parent = tracer.since(before)
    finally:
        tracer.uninstall()
    records = tracing.load_case_records(str(records_dir))
    same_rows = [comparable(r) for r in plain.rows] == [comparable(r) for r in traced.rows]
    attempted = len(plain.rows) + len(traced.rows)
    failed = count_failed(plain, pins) + count_failed(traced, pins)
    metrics = tracing.layer_metrics(
        records, traced.rows, parent, traced.wall_s, workload.config.workers
    )
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    metrics["campaign.failed_frac"] = failed / attempted
    return {
        "correct": failed == 0 and same_rows and len(records) == len(traced.rows),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "detail": {
            "traced_rows_equal_untraced": same_rows,
            "untraced_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s,
            "slowest_cases": tracing.slowest_cases(records),
        },
    }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_ms_per_case", "ms")):
        if metric.endswith(suffix):
            return unit
    if metric.startswith("campaign.case_s_") or metric == "campaign.harness_s":
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"
