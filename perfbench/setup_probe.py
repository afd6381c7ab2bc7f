"""Time one cold workload set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <base_seed>``.
Prints the seconds from the top of this script until the workload could
start its first case: importing ``repro``, building the case matrix and
the mission plans and, for a parallel workload, starting its process
pool with every worker up. Interpreter start-up is not included.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    from repro.missions.valencia import valencia_missions
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    config = workload.config_for(int(sys.argv[2]))
    workload.specs(config)
    valencia_missions(scale=config.scale)
    if config.workers == 1:
        print(time.perf_counter() - _START)
        return
    # The same pool kind run_campaign starts; one task per worker makes
    # every worker process exist before the clock stops.
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        list(pool.map(_pid, range(config.workers)))
        print(time.perf_counter() - _START)


def _pid(_: int) -> int:
    return os.getpid()


if __name__ == "__main__":
    main()
