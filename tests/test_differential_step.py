"""Per-run bit-exactness of the step loop, one test per pinned run.

Each fault type x fault target combination, and the fault-free gold
run, is re-flown and compared with its recorded per-step SHA-256 in
``tests/data/golden_step_traces.json``. The digest folds the raw bytes
of every metric-bearing signal (truth and EKF state, motor lag state,
bubble tallies) on every step, so one ULP of drift anywhere fails
tier-1, and a failure names the combination that drifted.
"""

from __future__ import annotations

import pytest

from repro.core.faults import FaultTarget, FaultType
from tests.test_golden_step_trace import assert_replay_matches_golden


@pytest.mark.parametrize("target", list(FaultTarget), ids=lambda t: t.value)
@pytest.mark.parametrize("fault_type", list(FaultType), ids=lambda f: f.value)
def test_every_fault_combination_bit_identical(fault_type: FaultType, target: FaultTarget):
    """All fault type x target combinations stay bit-identical per step."""
    assert_replay_matches_golden(f"{fault_type.value}-{target.value}")


def test_gold_run_bit_identical():
    """The fault-free baseline stays bit-identical per step."""
    assert_replay_matches_golden("gold")
