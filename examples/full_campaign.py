#!/usr/bin/env python3
"""Run the paper's fault-injection campaign and print Tables II-IV.

The full matrix is 850 cases (10 missions x 7 fault types x 3 targets x
4 durations + 10 gold runs). At ``--scale 1.0`` that is the paper's
setup with ~491 s gold runs and injection at 90 s — expect hours of
wall-clock. The default reduced scale keeps the same matrix shape in
tens of minutes on one core.

Long runs should use the crash-safe checkpoint: ``--checkpoint FILE``
journals every completed case, and after a crash or Ctrl-C the same
command plus ``--resume`` continues exactly where it stopped (the
merged result is bit-identical to an uninterrupted run). ``--retries``
and ``--timeout`` guard against flaky or wedged cases: a case that
exhausts its budget is recorded as a harness error and excluded from
the tables instead of aborting the campaign. ``--timeout`` runs every
case in a worker process (one with ``--workers 1``), the only place a
wedged case can be stopped; the rows are the same either way.

Run: ``python examples/full_campaign.py [--scale 0.15] [--missions 2,5,10]
      [--workers 1] [--durations 2,5,10,30] [--seed 0]
      [--checkpoint run.jsonl --resume] [--retries 3] [--timeout 600]``
"""

import argparse
import sys
import time

from repro import (
    CampaignConfig,
    RetryPolicy,
    check_paper_shapes,
    export_csv,
    harness_error_report,
    render_shape_checks,
    render_table,
    run_campaign,
    save_campaign,
    table2_by_duration,
    table3_by_fault,
    table4_failure_analysis,
)
from repro.core.tables import harness_error_note


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--missions", type=str, default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--durations", type=str, default="2,5,10,30")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save", type=str, default=None,
                        help="write raw results to this JSON file")
    parser.add_argument("--csv", type=str, default=None,
                        help="write raw results to this CSV file")
    parser.add_argument("--checkpoint", type=str, default=None,
                        help="crash-safe JSONL journal; every completed case "
                             "is appended and fsync'd")
    parser.add_argument("--resume", action="store_true",
                        help="continue from --checkpoint, skipping cases it "
                             "already holds")
    parser.add_argument("--retries", type=int, default=1,
                        help="attempts per case before it is recorded as a "
                             "harness error (default 1 = no retry)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-case wall-clock limit in seconds")
    parser.add_argument("--backoff", type=float, default=1.0,
                        help="base backoff sleep between retries (seconds)")
    parser.add_argument("--obs", type=str, default=None, metavar="DIR",
                        help="enable the observability plane: every case "
                             "flies instrumented and non-completed runs "
                             "drop a black box into DIR (inspect with "
                             "'python -m repro.obs summarize/render')")
    args = parser.parse_args()
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")

    config = CampaignConfig(
        scale=args.scale,
        mission_ids=tuple(int(m) for m in args.missions.split(",")),
        durations_s=tuple(float(d) for d in args.durations.split(",")),
        workers=args.workers,
        base_seed=args.seed,
        obs_dir=args.obs,
    )
    policy = RetryPolicy(
        max_attempts=max(1, args.retries),
        backoff_base_s=args.backoff,
        timeout_s=args.timeout,
    )
    cases = (
        len(config.mission_ids) * 21 * len(config.durations_s) + len(config.mission_ids)
    )
    print(
        f"Running {cases} experiments (scale={config.scale}, "
        f"injection at t={config.effective_injection_time_s:.0f}s) ..."
    )
    start = time.time()
    try:
        campaign = run_campaign(
            config,
            progress=True,
            retry_policy=policy,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
        )
    except KeyboardInterrupt:
        print("\ninterrupted.")
        if args.checkpoint:
            print(
                f"completed cases are journalled in {args.checkpoint}; "
                "re-run with --resume to continue from there."
            )
        else:
            print("no --checkpoint was given, so progress was not saved.")
        sys.exit(130)
    print(f"done in {time.time() - start:.0f} s\n")

    print(render_table(table2_by_duration(campaign),
                       "TABLE II: average summary grouped by injection duration"))
    print()
    print(render_table(table3_by_fault(campaign),
                       "TABLE III: average summary grouped by fault type"))
    print()
    print(render_table(table4_failure_analysis(campaign),
                       "TABLE IV: mission failure analysis"))
    note = harness_error_note(campaign)
    if note:
        print(note)
    print()
    print(render_shape_checks(check_paper_shapes(campaign)))
    if campaign.harness_errors:
        print()
        print(harness_error_report(campaign))

    if args.obs:
        blackboxes = [r for r in campaign.results if r.blackbox_path]
        print(f"\n{len(blackboxes)} black boxes collected in {args.obs}/ "
              "(one per non-completed case):")
        for r in blackboxes[:10]:
            print(f"  exp {r.experiment_id:4d}  {r.fault_label:<22} "
                  f"{r.outcome.value if r.outcome else 'harness_error':<9} "
                  f"{r.blackbox_path}")
        if len(blackboxes) > 10:
            print(f"  ... and {len(blackboxes) - 10} more")

    if args.save:
        save_campaign(campaign, args.save)
        print(f"\nraw results written to {args.save}")
    if args.csv:
        export_csv(campaign, args.csv)
        print(f"raw results written to {args.csv}")


if __name__ == "__main__":
    main()
