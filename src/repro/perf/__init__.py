"""Performance tooling: the observability-overhead gate
(``python -m repro.perf``) and the per-step fingerprints that pin the
step loop bit-for-bit.

Everything here is harness-side tooling: it may use wall-clock time,
but it never participates in simulation results. Two tier-1 gates hold
the step loop to zero drift: the golden per-step digests in
``tests/data/golden_step_traces.json`` (gold, a violent whole-IMU
fault, and every fault type x target combination) and the hypothesis
properties pairing each in-place kernel with its allocating original.
"""

from repro.perf.fingerprint import (
    GOLDEN_SPECS,
    build_pinned_system,
    fingerprint_run,
    step_fingerprint,
)

__all__ = [
    "GOLDEN_SPECS",
    "build_pinned_system",
    "fingerprint_run",
    "step_fingerprint",
]
