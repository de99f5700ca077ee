#!/usr/bin/env python3
"""Scan benchmark jobs for failed operations, untimed.

Runs the benchmark's own workload code (`bench/workloads.py`) over the
given seeds and range of job indices, and prints one line for each job
with a failed operation. `mc_geometric` and `crossval` run `Workload.job`;
`cli_files` runs `Workload.traced_job`, the in-process form of its CLI
children, in whole simulate -> calibrate -> analyze cycles. After each
seed the workload's own `finish` checks the jobs, as a benchmark run does
after timing, and counts the failed cells of the `cli_files` reports.

A timed benchmark run stops after a number of jobs that depends on the
host's speed, so its failed-operation count can move with that number
alone. A scan past that count tells such a move apart from a fault of
the code: two trees compare by running this once with each tree's `src`
and diffing the outputs.

Each seed prints a summary line after its failing jobs. Check failures
go to stderr. Exits 1 if any job failed or any check failed.

Usage:
    PYTHONPATH=src python scripts/scan_failures.py --workload mc_geometric --seeds 1 13 211 --jobs 0:600
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def job_range(text: str) -> range:
    try:
        start, stop = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be START:STOP, got {text!r}") from None
    if not 0 <= start < stop:
        raise argparse.ArgumentTypeError(f"need 0 <= START < STOP, got {text!r}")
    return range(start, stop)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from run import BLAS_THREAD_VARS, THREADS_ENV, WORKLOAD_NAMES, Checks

    # the benchmark's environment, set before workloads imports numpy
    os.environ.pop(THREADS_ENV, None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, type=int, nargs="+", help="workload seeds")
    parser.add_argument("--jobs", required=True, type=job_range, help="job indices START:STOP, STOP excluded")
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]
    if args.jobs.start % cls.cycle or args.jobs.stop % cls.cycle:
        parser.error(f"{args.workload} runs in cycles of {cls.cycle} jobs; START and STOP must be multiples")

    import caliblab

    print(f"caliblab from {Path(caliblab.__file__).parent}", file=sys.stderr)
    bad = False
    for seed in args.seeds:
        checks = Checks()
        with tempfile.TemporaryDirectory(prefix="scan-") as tmp:
            workload = cls(seed, Path(tmp) / "work", dict(os.environ), checks)
            try:
                workload.setup()
                run = workload.traced_job if cls.in_children else workload.job
                jobs = [run(index) for index in args.jobs]
                workload.finish(jobs, accuracy=False)
            finally:
                workload.close()
        failing = [(index, job) for index, job in zip(args.jobs, jobs) if job.failed > 0]
        for index, job in failing:
            print(f"{args.workload} seed {seed} job {index}: {job.failed} of {job.attempted} failed")
        print(
            f"{args.workload} seed {seed} jobs {args.jobs.start}:{args.jobs.stop}: "
            f"{len(failing)} failing, {sum(job.failed for job in jobs)} of {sum(job.attempted for job in jobs)} failed"
        )
        for failure in checks.failures:
            print(f"{args.workload} seed {seed} check failed: {failure}", file=sys.stderr)
        bad = bad or bool(failing or checks.failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
