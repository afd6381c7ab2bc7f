"""Golden per-step traces: the bit-exactness gate of the step loop.

``tests/data/golden_step_traces.json`` pins the SHA-256 of the raw
IEEE-754 bytes of every metric-bearing quantity on *every step* of each
run in :data:`repro.perf.fingerprint.GOLDEN_SPECS`: a 12 s gold run, a
violent whole-IMU fault run, a 1.2 s run for every fault type x
target combination, and two 12 s runs of the 3-IMU bank and voter.
Each run is its own test case, so a failure names the run that
drifted. Unlike the campaign-level golden file, a single flipped
mantissa bit on any step of any run fails here — and the checkpoints
localise the first divergent window.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.faults import FaultTarget, FaultType
from repro.perf.fingerprint import GOLDEN_SPECS, build_pinned_system, replay_golden

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_step_traces.json"


def test_spec_table_pins_every_fault_type_and_target():
    """One run per fault type x target, plus gold and imu_random — so a
    new fault type fails tier-1 until its golden digests are recorded."""
    pairs = [
        (run.fault.fault_type, run.fault.target)
        for name, run in GOLDEN_SPECS.items()
        if name not in ("gold", "imu_random") and not run.redundancy.enabled
    ]
    assert GOLDEN_SPECS["gold"].fault is None
    assert sorted(pairs, key=str) == sorted(
        ((t, g) for t in FaultType for g in FaultTarget), key=str
    )
    assert set(json.loads(GOLDEN_PATH.read_text())) == set(GOLDEN_SPECS), (
        "golden file runs do not match GOLDEN_SPECS; re-record "
        "tests/data/golden_step_traces.json (DESIGN.md §11)"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_replay_matches_golden(name):
    """Re-fly the pinned run ``name`` and compare it with its golden digests."""
    want = json.loads(GOLDEN_PATH.read_text())[name]
    got = replay_golden(name)
    assert got["n_steps"] == want["n_steps"], name
    assert got["every"] == want["every"], name
    # Checkpoints first: a drift then reports the first bad window
    # instead of only the final digest.
    for got_cp, want_cp in zip(got["checkpoints"], want["checkpoints"], strict=True):
        assert got_cp["digest"] == want_cp["digest"], (
            f"run {name!r} diverged by step {got_cp['step']}: "
            f"{got_cp['digest']} != {want_cp['digest']}"
        )
    assert got["final_digest"] == want["final_digest"], name


#: The 3-IMU bank runs and what each must exercise.
BANK_RUNS = {
    "bank3-fixed-gyro-primary_only": "switchover",
    "bank3-random-imu-all": "degraded",
}


def test_bank_runs_are_the_redundant_runs():
    assert {
        name for name, run in GOLDEN_SPECS.items() if run.redundancy.enabled
    } == set(BANK_RUNS)


@pytest.mark.parametrize("name", sorted(BANK_RUNS))
def test_bank_run_exercises_its_recovery_path(name):
    """Each bank run really switches over or flies DEGRADED, so its
    digests pin the voter and the recovery path, not an idle bank."""
    run = GOLDEN_SPECS[name]
    system = build_pinned_system(run.fault, seed=run.seed, redundancy=run.redundancy)
    degraded_ticks = 0
    for _ in range(run.n_steps):
        system.step()
        degraded_ticks += system.redundancy.degraded
    if BANK_RUNS[name] == "switchover":
        assert [(e.from_member, e.to_member) for e in system.redundancy.events] == [(0, 1)]
        assert degraded_ticks == 0
    else:
        assert not system.redundancy.events
        assert degraded_ticks > 100

