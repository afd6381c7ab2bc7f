"""Per-step fingerprints for bit-exactness pinning.

A fingerprint is the raw IEEE-754 bytes of everything the paper's
metrics depend on — truth state, EKF nominal state, motor lag state,
and the bubble monitor tallies — folded into a running SHA-256. Two
simulations produce the same final digest if and only if every one of
those quantities matched *to the bit on every step*, which is the
guarantee every refactor and optimisation of the step loop is held to.

The golden digests in ``tests/data/golden_step_traces.json`` pin every
run of :data:`GOLDEN_SPECS`; ``tests/test_golden_step_trace.py``
replays each run as its own test case, so any numerical drift — not
just campaign-level drift — fails tier-1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.faults import FaultScope, FaultSpec, FaultTarget, FaultType
from repro.missions import valencia_missions
from repro.redundancy import RedundancyConfig
from repro.system import SystemConfig, UavSystem


@dataclass(frozen=True)
class GoldenRun:
    """One pinned run: the fault, the vehicle seed, the run length, how
    often the running digest is checkpointed (so a mismatch localises
    to one window instead of "somewhere in the run"), and the vehicle's
    IMU redundancy (the paper's single IMU unless enabled)."""

    fault: FaultSpec | None
    seed: int = 0
    n_steps: int = 1200
    every: int = 100
    redundancy: RedundancyConfig = RedundancyConfig()


#: Every pinned run. ``gold`` and ``imu_random`` are 12 simulated
#: seconds at 100 Hz (takeoff, a violent whole-IMU random window that
#: exercises injector, gated EKF updates, failsafe, and the desaturating
#: mixer, then recovery). The ``<type>-<target>`` runs cover every fault
#: type x target combination with 1.2 s runs — spin-up, the 0.4-0.9 s
#: fault window, and post-fault recovery — checkpointed every 10 steps.
#: The two ``bank3-*`` runs fly the 3-IMU bank and voter for 12 s: a
#: primary-only gyro fault the manager switches away from, and a
#: whole-bank IMU fault that leaves no healthy member, so the vehicle
#: flies the DEGRADED fallback (bank median plus gravity-tilt aiding on
#: every tick) until the window ends.
GOLDEN_SPECS: dict[str, GoldenRun] = {
    "gold": GoldenRun(None),
    "imu_random": GoldenRun(
        FaultSpec(FaultType.RANDOM, FaultTarget.IMU, start_time_s=4.0, duration_s=3.0)
    ),
    **{
        f"{fault_type.value}-{target.value}": GoldenRun(
            FaultSpec(fault_type, target, start_time_s=0.4, duration_s=0.5, seed=7),
            seed=3,
            n_steps=120,
            every=10,
        )
        for fault_type in FaultType
        for target in FaultTarget
    },
    "bank3-fixed-gyro-primary_only": GoldenRun(
        FaultSpec(
            FaultType.FIXED,
            FaultTarget.GYRO,
            start_time_s=4.0,
            duration_s=3.0,
            seed=7,
            scope=FaultScope.PRIMARY_ONLY,
        ),
        redundancy=RedundancyConfig(enabled=True, num_members=3),
    ),
    "bank3-random-imu-all": GoldenRun(
        FaultSpec(FaultType.RANDOM, FaultTarget.IMU, start_time_s=4.0, duration_s=3.0, seed=7),
        redundancy=RedundancyConfig(enabled=True, num_members=3),
    ),
}


def build_pinned_system(
    fault: FaultSpec | None = None,
    seed: int = 0,
    obs: Any = None,
    redundancy: RedundancyConfig | None = None,
) -> UavSystem:
    """A deterministic armed vehicle, shared by the golden runs and the bench.

    ``obs`` (an :class:`repro.obs.Observer`) instruments the vehicle;
    the fingerprints it produces must be bit-identical either way.
    ``redundancy`` defaults to the paper's single-IMU vehicle.
    """
    plan = valencia_missions(scale=0.1)[3]
    config = SystemConfig(seed=seed, redundancy=redundancy or RedundancyConfig())
    system = UavSystem(plan, config=config, fault=fault, obs=obs)
    system.commander.arm_and_takeoff(system.physics.time_s)
    return system


def step_fingerprint(system: UavSystem) -> bytes:
    """Raw bytes of every metric-bearing quantity after one step."""
    truth = system.physics.state
    ekf = system.ekf
    counts = system.bubble_monitor.counts
    if system.bubble_monitor.history:
        last = system.bubble_monitor.history[-1]
        bubble = (last.deviation_m, last.inner_radius_m, last.outer_radius_m)
    else:
        bubble = (0.0, 0.0, 0.0)
    tail = np.array(
        [
            float(counts.inner),
            float(counts.outer),
            float(counts.tracking_instances),
            counts.max_deviation_m,
            bubble[0],
            bubble[1],
            bubble[2],
        ]
    )
    return b"".join(
        (
            truth.position_ned.tobytes(),
            truth.velocity_ned.tobytes(),
            truth.quaternion.tobytes(),
            truth.angular_rate_body.tobytes(),
            ekf.quaternion.tobytes(),
            ekf.velocity_ned.tobytes(),
            ekf.position_ned.tobytes(),
            ekf.gyro_bias.tobytes(),
            ekf.accel_bias.tobytes(),
            system.physics.airframe.motors.effective_commands.tobytes(),
            tail.tobytes(),
        )
    )


def fingerprint_run(system: UavSystem, n_steps: int, every: int) -> dict[str, Any]:
    """Step ``system`` and fold each step's fingerprint into SHA-256."""
    if n_steps < 1 or every < 1:
        raise ValueError("n_steps and every must be positive")
    hasher = hashlib.sha256()
    checkpoints: list[dict[str, Any]] = []
    for i in range(n_steps):
        system.step()
        hasher.update(step_fingerprint(system))
        if (i + 1) % every == 0:
            checkpoints.append({"step": i + 1, "digest": hasher.hexdigest()})
    return {
        "n_steps": n_steps,
        "every": every,
        "checkpoints": checkpoints,
        "final_digest": hasher.hexdigest(),
    }


def replay_golden(name: str, obs: Any = None) -> dict[str, Any]:
    """Re-fly the pinned run ``name`` and return its digests."""
    run = GOLDEN_SPECS[name]
    system = build_pinned_system(
        run.fault, seed=run.seed, obs=obs, redundancy=run.redundancy
    )
    return fingerprint_run(system, run.n_steps, run.every)


def golden_digests() -> dict[str, dict[str, Any]]:
    """Recompute the digests of every pinned run, in table order."""
    return {name: replay_golden(name) for name in GOLDEN_SPECS}
