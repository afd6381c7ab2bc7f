"""Golden flight logs: the recorder's rows and paper metric 5, pinned.

The golden step traces hash truth, EKF, motors and bubble tallies on
every step, but not the flight recorder. This file pins what the
recorder keeps for the ``gold`` and ``imu_random`` golden runs: the row
count, the EKF-estimated distance travelled (as ``float.hex``), and a
SHA-256 over the float64 bytes of each row's time, estimated position,
true position and fault flag. A one-step slip in the 5 Hz decimation,
a row stamped with the wrong time or fault flag, or any change to the
distance integral fails here.

Re-record (only for a deliberate behaviour change)::

    PYTHONPATH=src python tests/test_golden_flight_log.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.perf.fingerprint import GOLDEN_SPECS, build_pinned_system

PIN_PATH = Path(__file__).parent / "data" / "golden_flight_log.json"
PINNED_RUNS = ("gold", "imu_random")
PINNED_COLUMNS = (
    "time_s",
    "est_pos_n", "est_pos_e", "est_pos_d",
    "truth_pos_n", "truth_pos_e", "truth_pos_d",
    "fault_active",
)


def flight_log_rows(system) -> np.ndarray:
    """(N, 8) float64 rows: time, estimated NED, true NED, fault flag."""
    return np.column_stack([system.recorder.column(name) for name in PINNED_COLUMNS])


def flight_log_pin(name: str) -> dict[str, Any]:
    """Fly the golden run ``name`` and summarise its flight log."""
    run = GOLDEN_SPECS[name]
    system = build_pinned_system(
        run.fault, seed=run.seed, redundancy=run.redundancy
    )
    for _ in range(run.n_steps):
        system.step()
    rows = flight_log_rows(system)
    return {
        "rows": int(rows.shape[0]),
        "estimated_distance_m": float.hex(system.recorder.estimated_distance_m),
        "rows_sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
    }


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_flight_log_matches_pin(name):
    want = json.loads(PIN_PATH.read_text())[name]
    got = flight_log_pin(name)
    assert got["rows"] == want["rows"], name
    assert got["estimated_distance_m"] == want["estimated_distance_m"], name
    assert got["rows_sha256"] == want["rows_sha256"], name


if __name__ == "__main__":
    pins = {name: flight_log_pin(name) for name in PINNED_RUNS}
    PIN_PATH.write_text(json.dumps(pins, indent=2) + "\n")
    print(json.dumps(pins, indent=2))
