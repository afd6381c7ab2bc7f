#!/usr/bin/env python3
"""Run the ablation sweeps on the reproduction's design choices.

Shows how much each mechanism matters:

* failsafe isolation time (the paper's >= 1900 ms observation),
* the 60 deg/s gyro failure-detection threshold,
* the EKF fusion-timeout reset (recovery after divergence),
* degraded-attitude gain scheduling (survival of gyro-dead windows),
* the bubble risk factor R (Eq. 3).

Run: ``python examples/ablation_study.py [--which all]``

Exits non-zero when an on/off ablation points the wrong way: turning
the fusion reset off must not raise completion, and turning confidence
scheduling off must lower it.
"""

import argparse
import sys

from repro.core.ablations import (
    confidence_scheduling_ablation,
    fusion_reset_ablation,
    gyro_threshold_sweep,
    isolation_time_sweep,
    render_ablation,
    risk_factor_sweep,
)

SWEEPS = {
    "isolation": (isolation_time_sweep, "Failsafe isolation time sweep (gyro fault slice)"),
    "threshold": (gyro_threshold_sweep, "Gyro FD threshold sweep (gyro fault slice)"),
    "reset": (fusion_reset_ablation, "EKF fusion-timeout reset on/off (accel fault slice)"),
    "confidence": (confidence_scheduling_ablation, "Attitude-confidence gain scheduling on/off"),
    "risk": (risk_factor_sweep, "Bubble risk factor R sweep (Eq. 3)"),
}


#: The direction each on/off ablation must show: a finding and a test
#: on the completion % with the mechanism on and off.
DIRECTIONS = {
    "reset": (
        "disabling the fusion reset does not raise completion",
        lambda on, off: off <= on,
    ),
    "confidence": (
        "disabling confidence scheduling lowers completion",
        lambda on, off: on > off,
    ),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which", choices=["all", *SWEEPS], default="all")
    args = parser.parse_args()

    chosen = SWEEPS if args.which == "all" else {args.which: SWEEPS[args.which]}
    failed = []
    for key, (sweep, title) in chosen.items():
        points = sweep()
        print()
        print(render_ablation(points, title))
        if key in DIRECTIONS:
            finding, holds = DIRECTIONS[key]
            on = next(p.completed_pct for p in points if p.value is True)
            off = next(p.completed_pct for p in points if p.value is False)
            mark = "PASS" if holds(on, off) else "FAIL"
            print(f"  [{mark}] {finding}: {on:.1f}% on vs {off:.1f}% off")
            if not holds(on, off):
                failed.append(key)
    if failed:
        sys.exit(f"ablation direction reversed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
