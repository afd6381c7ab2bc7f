"""Per-layer timing of a campaign, measured from outside the program.

:class:`LayerTracer` replaces the public methods that make up each
stage of ``UavSystem.step`` (and the per-case calls around it) with
wrappers that count calls and add up their wall time, then calls the
original. The wrappers only read, so a traced campaign flies the same
bits as an untraced one; the benchmark checks this row for row.

Case runners may execute in pool workers. :func:`traced_runner` is the
picklable per-case callable: it brackets ``run_experiment`` with
counter snapshots and appends the case's deltas as one JSON line to a
per-process file. The parent merges every worker's file after the
campaign, so no layer is measured only in serial.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import repro.core.campaign as campaign_module
from repro.control import AttitudeController, Mixer, PositionController, RateController
from repro.core.campaign import CampaignConfig, run_experiment
from repro.core.experiments import ExperimentSpec
from repro.core.io import CampaignJournal
from repro.core.results import ExperimentResult
from repro.estimation import Ekf
from repro.flightstack import Commander, CrashDetector, FailsafeEngine
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.redundancy import ImuBank, RedundancyManager
from repro.sensors import Barometer, GpsModel, Magnetometer
from repro.sim import QuadrotorPhysics
from repro.system import UavSystem
from repro.telemetry import FlightRecorder
from repro.uspace import BubbleMonitor

_NullObserver = type(NULL_OBSERVER)

#: Stages of ``UavSystem.step``: layer metric prefix -> public calls.
STEP_STAGES: dict[str, tuple[tuple[type, str], ...]] = {
    "sensors.sample": (
        (ImuBank, "sample"),
        (GpsModel, "maybe_sample"),
        (Barometer, "maybe_sample"),
        (Magnetometer, "maybe_sample"),
    ),
    "redundancy.select": ((RedundancyManager, "select"),),
    "estimation.predict": ((Ekf, "predict"),),
    "estimation.update": (
        (Ekf, "update_gps"),
        (Ekf, "update_baro"),
        (Ekf, "update_mag_yaw"),
        (Ekf, "update_gravity_tilt"),
    ),
    "flightstack.manage": (
        (FailsafeEngine, "update"),
        (CrashDetector, "assess_contact"),
        (Commander, "update"),
    ),
    "control.cascade": (
        (PositionController, "velocity_setpoint"),
        (PositionController, "acceleration_setpoint"),
        (PositionController, "thrust_and_attitude"),
        (AttitudeController, "rate_setpoint"),
        (RateController, "torque_command"),
        (Mixer, "mix"),
    ),
    "sim.physics": ((QuadrotorPhysics, "step"),),
    "uspace.track": ((BubbleMonitor, "due"), (BubbleMonitor, "maybe_track")),
    "telemetry.record": ((FlightRecorder, "due"), (FlightRecorder, "maybe_record")),
    "obs.step": ((Observer, "on_step"), (_NullObserver, "on_step")),
}

#: Calls made once per case (or per journalled case), outside the step.
CASE_CALLS: dict[str, tuple[tuple[Any, str], ...]] = {
    "system.init": ((UavSystem, "__init__"),),
    "missions.build": ((campaign_module, "valencia_missions"),),
    "obs.dump": ((Observer, "on_run_end"), (_NullObserver, "on_run_end")),
    "io.journal_append": ((CampaignJournal, "append"),),
}

_STEP = "system.step"
_STEP_SELF = "system.step_self"
_PREFIX = "system.prefix_steps"
_MIX = "Mixer.mix"


def _key(owner: Any, name: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{name}"


class LayerTracer:
    """Call counts and busy nanoseconds per wrapped public call.

    ``counters`` maps a key (``"Ekf.predict"``, ``"system.step"``, ...)
    to ``[busy_ns, calls]``. Install with :meth:`install`, which must be
    paired with :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self.counters: dict[str, list[int]] = {}
        self._originals: list[tuple[Any, str, Any]] = []
        # Nanoseconds spent in stage calls, read by the step wrapper to
        # split the step's own time from its stages'.
        self._stage_ns = [0]

    # -------------------------------------------------------- patching

    def install(self) -> None:
        global _ACTIVE
        if self._originals:
            raise RuntimeError("tracer already installed")
        for calls in STEP_STAGES.values():
            for owner, name in calls:
                self._patch(owner, name, self._timed(owner, name, self._stage_ns))
        for calls in CASE_CALLS.values():
            for owner, name in calls:
                self._patch(owner, name, self._timed(owner, name, None))
        self._patch(UavSystem, "step", self._timed_step(UavSystem.step))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def _patch(self, owner: Any, name: str, wrapper: Callable[..., Any]) -> None:
        # Every patched name is defined on its owner itself (vars(), not
        # getattr), so restoring it with setattr leaves no copy behind.
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _timed(self, owner: Any, name: str, stage_ns: list[int] | None) -> Callable[..., Any]:
        fn = vars(owner)[name]
        cell = self.counters.setdefault(_key(owner, name), [0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += elapsed
                cell[1] += 1
                if stage_ns is not None:
                    stage_ns[0] += elapsed

        return wrapper

    def _timed_step(self, fn: Callable[[UavSystem], None]) -> Callable[[UavSystem], None]:
        step = self.counters.setdefault(_STEP, [0, 0])
        own = self.counters.setdefault(_STEP_SELF, [0, 0])
        prefix = self.counters.setdefault(_PREFIX, [0, 0])
        stage_ns = self._stage_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(system: UavSystem) -> None:
            fault = system.fault
            if fault is not None and system.physics.time_s < fault.start_time_s:
                prefix[1] += 1
            stages_before = stage_ns[0]
            start = clock()
            fn(system)
            elapsed = clock() - start
            step[0] += elapsed
            step[1] += 1
            own[0] += elapsed - (stage_ns[0] - stages_before)
            own[1] += 1

        return wrapper

    # -------------------------------------------------------- snapshots

    def snapshot(self) -> dict[str, list[int]]:
        return {k: list(v) for k, v in self.counters.items()}

    def since(self, before: dict[str, list[int]]) -> dict[str, list[int]]:
        """Counter deltas since ``before`` (a :meth:`snapshot`)."""
        return {
            k: [v[0] - before[k][0], v[1] - before[k][1]]
            for k, v in self.counters.items()
        }


#: The tracer installed in this process. Class patching is process-wide
#: by nature, and pool workers reach the tracer through this name.
_ACTIVE: LayerTracer | None = None


class TracedRunner:
    """Picklable per-case runner that records each case's layer deltas."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def __call__(self, spec: ExperimentSpec, config: CampaignConfig) -> ExperimentResult:
        tracer = _ACTIVE
        if tracer is None:
            raise RuntimeError("no LayerTracer installed in this process")
        before = tracer.snapshot()
        start = time.perf_counter()
        result = run_experiment(spec, config)
        host_s = time.perf_counter() - start
        counters = tracer.since(before)
        record = {
            "experiment_id": spec.experiment_id,
            "label": f"M{spec.mission_id} {spec.label}",
            "outcome": result.outcome.value if result.outcome is not None else None,
            "host_s": host_s,
            "steps": counters[_STEP][1],
            "counters": counters,
        }
        path = Path(self.out_dir) / f"cases-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        return result


def load_case_records(out_dir: str) -> list[dict[str, Any]]:
    """Every worker's case records, merged, in experiment order."""
    records = []
    for path in sorted(Path(out_dir).glob("cases-*.jsonl")):
        with path.open() as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return sorted(records, key=lambda r: r["experiment_id"])


def _stage_total(counters: dict[str, list[int]], calls: tuple[tuple[Any, str], ...]) -> list[int]:
    ns = sum(counters.get(_key(o, n), [0, 0])[0] for o, n in calls)
    count = sum(counters.get(_key(o, n), [0, 0])[1] for o, n in calls)
    return [ns, count]


def layer_metrics(
    records: list[dict[str, Any]],
    rows: list[ExperimentResult],
    parent_counters: dict[str, list[int]],
    wall_s: float,
    workers: int,
) -> dict[str, float]:
    """Per-layer metrics of one traced campaign pass.

    ``records`` are the merged case records, ``rows`` the pass's result
    rows, ``parent_counters`` the campaign process's counter deltas over
    the pass (the journal is written there) and ``wall_s`` the
    ``run_campaign`` wall time.
    """
    totals: dict[str, list[int]] = {}
    for record in records:
        for key, (ns, calls) in record["counters"].items():
            cell = totals.setdefault(key, [0, 0])
            cell[0] += ns
            cell[1] += calls
    cases = len(records)
    steps = totals[_STEP][1]
    case_s = [r["host_s"] for r in records]
    busy_s = sum(case_s)
    m: dict[str, float] = {}
    build = _stage_total(totals, CASE_CALLS["missions.build"])
    init = _stage_total(totals, CASE_CALLS["system.init"])
    m["missions.build_ms_per_case"] = build[0] / cases / 1e6
    m["system.init_ms_per_case"] = init[0] / cases / 1e6
    m["system.steps_per_case"] = steps / cases
    m["system.prefix_steps_frac"] = totals[_PREFIX][1] / steps
    m["system.step_ns"] = totals[_STEP][0] / steps
    m["system.step_self_ns"] = totals[_STEP_SELF][0] / steps
    for stage, calls in STEP_STAGES.items():
        ns, count = _stage_total(totals, calls)
        m[f"{stage}_ns"] = ns / steps
        m[f"{stage}_calls_per_step"] = count / steps
    m["estimation.updates_per_step"] = m.pop("estimation.update_calls_per_step")
    m["control.active_frac"] = totals[_MIX][1] / steps
    m["redundancy.switchovers_per_case"] = sum(r.imu_switchovers for r in rows) / cases
    dump = _stage_total(totals, CASE_CALLS["obs.dump"])
    m["obs.dump_ms"] = dump[0] / cases / 1e6
    m["obs.dumps_per_case"] = sum(r.blackbox_path is not None for r in rows) / cases
    m["campaign.case_s_p50"] = statistics.median(case_s)
    m["campaign.case_s_p90"] = (
        statistics.quantiles(case_s, n=10, method="inclusive")[8]
        if cases > 1
        else case_s[0]
    )
    m["campaign.cases_timed"] = cases
    m["campaign.harness_s"] = wall_s - busy_s / workers
    m["campaign.worker_idle_frac"] = 1.0 - busy_s / (workers * wall_s)
    appends_ns, appends = _stage_total(parent_counters, CASE_CALLS["io.journal_append"])
    m["io.journal_append_ms"] = appends_ns / appends / 1e6 if appends else 0.0
    m["io.journal_appends"] = appends
    return m


def slowest_cases(records: list[dict[str, Any]], n: int = 10) -> list[dict[str, Any]]:
    """The ``n`` cases that took the most host time."""
    ranked = sorted(records, key=lambda r: r["host_s"], reverse=True)[:n]
    return [
        {k: r[k] for k in ("experiment_id", "label", "outcome", "host_s", "steps")}
        for r in ranked
    ]

