"""CLI: ``python -m repro.perf`` — the observability-overhead gate.

Takes no options. Prints one JSON line with the obs-disabled and
obs-enabled step rates and the overhead; exits 1 when the overhead is
above ``OBS_OVERHEAD_CEILING``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.perf.bench import check_obs_overhead, run_bench


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(prog="python -m repro.perf", description=__doc__).parse_args(argv)
    report = run_bench()
    print(json.dumps(report))
    return 0 if check_obs_overhead(report) else 1


if __name__ == "__main__":
    sys.exit(main())
