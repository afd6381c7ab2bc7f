"""Campaign benchmark: real fault-injection campaigns on named workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fault_matrix --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer ones.
The lines before it give the run's provenance (and, traced, its slowest
cases); the same data is written to ``.perfbench/``. ``--pin``
re-flies every workload at both pinned seeds and rewrites ``pins/``:
do that only in a change of its own, when flight behaviour changed on
purpose. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the pinned rows")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import bench
    from workloads import WORKLOADS, seed_to_base_seed

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    scratch = WORK_DIR / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        if args.pin:
            names = [args.workload] if args.workload else list(WORKLOADS)
            for name in names:
                bench.write_pins(WORKLOADS[name], scratch / name)
                print(f"pinned {name}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        base_seed = seed_to_base_seed(args.seed)
        pins = bench.load_pins(workload, base_seed)
        if args.trace:
            result = bench.run_traced(workload, base_seed, scratch, pins)
        else:
            result = bench.run_untraced(workload, base_seed, args.seconds, scratch, pins)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    detail = result.pop("detail")
    stamp = bench.provenance(ROOT, workload, base_seed)
    print(f"provenance {json.dumps(stamp)}")
    for case in detail.get("slowest_cases", []):
        print(
            f"slow case {case['experiment_id']:4d} {case['label']:<24} "
            f"{case['outcome'] or 'harness_error':<10} {case['host_s']:7.3f} s "
            f"{case['steps']:6d} steps"
        )
    WORK_DIR.mkdir(exist_ok=True)
    report = WORK_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(
        json.dumps({"provenance": stamp, "detail": detail, **result}, indent=1) + "\n"
    )
    print(f"report {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
