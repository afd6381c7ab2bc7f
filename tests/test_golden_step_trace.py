"""Golden per-step traces: the bit-exactness gate of the step loop.

``tests/data/golden_step_traces.json`` pins the SHA-256 of the raw
IEEE-754 bytes of every metric-bearing quantity on *every step* of each
run in :data:`repro.perf.fingerprint.GOLDEN_SPECS`: a 12 s gold run, a
violent whole-IMU fault run, and a 1.2 s run for every fault type x
target combination. Unlike the campaign-level golden file, a single
flipped mantissa bit on any step of any run fails here — and the
checkpoints localise the first divergent window.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.faults import FaultTarget, FaultType
from repro.perf.fingerprint import GOLDEN_SPECS, replay_golden

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_step_traces.json"


def test_spec_table_pins_every_fault_type_and_target():
    """One run per fault type x target, plus gold and imu_random — so a
    new fault type fails tier-1 until its golden digests are recorded."""
    pairs = [
        (run.fault.fault_type, run.fault.target)
        for name, run in GOLDEN_SPECS.items()
        if name not in ("gold", "imu_random")
    ]
    assert GOLDEN_SPECS["gold"].fault is None
    assert sorted(pairs, key=str) == sorted(
        ((t, g) for t in FaultType for g in FaultTarget), key=str
    )
    assert set(json.loads(GOLDEN_PATH.read_text())) == set(GOLDEN_SPECS), (
        "golden file runs do not match GOLDEN_SPECS; re-record "
        "tests/data/golden_step_traces.json (DESIGN.md §11)"
    )


def assert_replay_matches_golden(name: str) -> None:
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


def test_golden_step_traces_bit_identical():
    """The violent whole-IMU fault run. The gold run and the fault type x
    target runs each have their own test in ``test_differential_step.py``."""
    assert_replay_matches_golden("imu_random")
