#!/usr/bin/env python3
"""caliblab benchmark: one workload per call, closed loop, one job at a time.

    python3 bench/run.py --workload mc_geometric --seed 1 --seconds 25 --trace 0

Run it from the repository root: caliblab is imported from ./src, never
from an installed copy. With --trace 0 the last line of stdout is the
end-to-end result; with --trace 1 it holds the per-layer metrics of a
traced run. The line before it is the full run record (environment,
seed, job count, tail percentile, failures, digest, checks), which is
also written to bench/out/. The exit code is 0 only when every
correctness check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
THREADS_ENV = "CALIBLAB_THREADS"
# BLAS runs on one thread in the benchmark and its children. Every matrix
# caliblab hands to BLAS is tiny; with the default thread count, BLAS
# helper threads spin against the job's own thread on a 2-vCPU machine and
# per-job times jittered several times more (bench/README.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
TAIL_BEYOND = 10
# Listed here rather than taken from workloads.py, so that parsing the
# arguments imports nothing (numpy included) before the timed import.
WORKLOAD_NAMES = ("mc_geometric", "crossval", "cli_files")

# The end-to-end metrics every untraced run prints, in BENCHMARK.json order.
# Times are CPU time: on a shared VM the host steals a varying share of
# the CPU, which swings wall-clock times by a tenth or more between runs.
# Wall-clock figures are in the run record.
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_cpu_s", "1/s"),
    ("job_cpu_p50_ms", "ms"),
    ("job_cpu_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pp_err_mean_px", "px"),
    ("pp_err_p90_px", "px"),
    ("f_err_mean_rel", "ratio"),
    ("rmse_mean_px", "px"),
)


class Checks:
    """Correctness checks of one run; a failed one fails the run."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, name: str, detail: str = "") -> bool:
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten jobs beyond it, as
    (value, percentile). Needs at least eleven jobs."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def cpu_time() -> float:
    """CPU seconds used so far by this process and its reaped children.
    The guest kernel leaves out time the host stole from the VM."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def steal_counters() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def timed_loop(run_job, seconds: float, min_jobs: int, cycle: int = 1, count: int | None = None, tracer=None):
    """Run jobs 0, 1, ... one at a time: `count` of them if given, else
    until `seconds` have passed, at least `min_jobs` ran and a whole cycle
    of `cycle` jobs is complete. Returns the jobs, their wall-clock
    (start, end) and their CPU seconds."""
    jobs, spans, cpus = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i >= min_jobs and i % cycle == 0 and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.begin_job(i)
        c0 = cpu_time()
        t0 = time.perf_counter()
        jobs.append(run_job(i))
        spans.append((t0, time.perf_counter()))
        cpus.append(cpu_time() - c0)
        i += 1
    return jobs, spans, cpus


def oracle_check(checks: Checks) -> None:
    """The noise-free cam1 dataset recovers ground truth per cell within
    the tolerances of the acceptance suite's exact-recovery oracle."""
    import caliblab.calibrate as calibrate
    import caliblab.errors as errors
    import caliblab.synth as synth

    dataset = synth.generate_dataset(synth.SceneConfig.for_camera("cam1", noise_sigma_px=0.0))
    checks.require(dataset.n_views() == 224, "oracle dataset has 224 views", str(dataset.n_views()))
    bad = []
    for (pose, setting), views in dataset.cells.items():
        gt = dataset.ground_truth[(pose, setting)][0]
        try:
            geo = calibrate.calibrate_geometric(views)
            alg = calibrate.calibrate_algebraic(views)
        except errors.CaliblabError as err:
            bad.append(f"{pose.value}/{setting.label_mm}: {type(err).__name__}")
            continue
        ok = (
            math.hypot(geo.intrinsics.pp.u - gt.pp.u, geo.intrinsics.pp.v - gt.pp.v) < 0.01
            and abs(geo.intrinsics.f - gt.f) / gt.f < 1e-4
            and abs(alg.intrinsics.f - gt.f) / gt.f < 1e-4
            and math.hypot(alg.intrinsics.pp.u - gt.pp.u, alg.intrinsics.pp.v - gt.pp.v)
            < 1e-4 * math.hypot(gt.pp.u, gt.pp.v)
        )
        if not ok:
            bad.append(f"{pose.value}/{setting.label_mm}")
    checks.require(not bad, "noise-free cam1 dataset recovers ground truth (oracle tolerances)", ", ".join(bad))


def environment(threads) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        THREADS_ENV: "unset for this process and its children",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "cross_validate_threads": threads,
    }


def untraced(workload, args, setup_s) -> tuple[dict, dict, list]:
    steal0 = steal_counters()
    jobs, spans, cpus = timed_loop(workload.job, args.seconds, max(workload.min_jobs, workload.acc_jobs), workload.cycle)
    steal1 = steal_counters()
    walls = [end - start for start, end in spans]
    accuracy = workload.finish(jobs, accuracy=True)
    tail_cpu, tail_pct = tail(cpus)
    usage = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "jobs_per_cpu_s": len(cpus) / sum(cpus),
        "job_cpu_p50_ms": statistics.median(cpus) * 1e3,
        "job_cpu_tail_ms": tail_cpu * 1e3,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        **{name: accuracy[name] for name in ("pp_err_mean_px", "pp_err_p90_px", "f_err_mean_rel", "rmse_mean_px")},
    }
    record = {
        "wall_clock": {
            "wall_s": spans[workload.acc_jobs - 1][1] - spans[0][0],
            "jobs_per_s": len(walls) / sum(walls),
            "job_p50_ms": statistics.median(walls) * 1e3,
            "job_tail_ms": tail(walls)[0] * 1e3,
        },
        "steal_frac": (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]) if steal0 and steal1 else None,
        "job_ms": [round(w * 1e3, 3) for w in walls],
        "job_cpu_ms": [round(c * 1e3, 3) for c in cpus],
        "job_tail_pct": tail_pct,
        "acc_jobs": workload.acc_jobs,
        "accuracy": {k: v for k, v in accuracy.items() if k != "digest"},
        "digest": accuracy["digest"],
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, record, jobs


def traced(workload, args, child_env) -> tuple[dict, dict, list]:
    import tracing

    metrics = tracing.import_times_ms(child_env, Path.cwd())
    reference, _, ref_cpus = timed_loop(workload.traced_job, args.seconds / 2, workload.cycle, workload.cycle)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs, spans, cpus = timed_loop(workload.traced_job, 0, 0, count=len(reference), tracer=tracer)
    finally:
        tracer.uninstall()
    walls = [end - start for start, end in spans]
    workload.finish(reference + jobs, accuracy=False)
    metrics.update(tracing.layer_metrics(tracer, walls, threading.get_ident()))
    metrics["trace.overhead_frac"] = sum(cpus) / sum(ref_cpus) - 1.0
    spans_path = OUT_DIR / f"spans-{workload.name}.npz"
    tracer.write(spans_path, spans[0][0])
    record = {
        "traced_jobs": len(jobs),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(BENCH_DIR.parent)),
    }
    return {name: (metrics[name], unit) for name, unit in tracing.PER_LAYER}, record, reference + jobs


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "caliblab" / "__init__.py").is_file():
        print(f"error: no caliblab sources at {src}; run from the repository root", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and args.seed >= 0):
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    os.environ.pop(THREADS_ENV, None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)

    t0, c0 = time.perf_counter(), cpu_time()
    import caliblab

    import_wall, import_cpu = time.perf_counter() - t0, cpu_time() - c0
    if not Path(caliblab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported caliblab from {caliblab.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR / f"work-{os.getpid()}", child_env, checks)
    try:
        generate_wall, generate_cpu = [], []
        for _ in range(SETUP_REPS):
            t0, c0 = time.perf_counter(), cpu_time()
            workload.setup()
            generate_wall.append(time.perf_counter() - t0)
            generate_cpu.append(cpu_time() - c0)
        setup_s = import_cpu + statistics.median(generate_cpu)
        oracle_check(checks)
        threads = workload.warm_up()
        if args.trace:
            metrics, record, jobs = traced(workload, args, child_env)
        else:
            metrics, record, jobs = untraced(workload, args, setup_s)
    except Exception:
        traceback.print_exc()
        print("error: the benchmark run failed before producing a result", file=sys.stderr)
        return 1
    finally:
        workload.close()

    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(jobs),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "setup": {
            "import_cpu_s": import_cpu,
            "generate_cpu_s": generate_cpu,
            "import_wall_s": import_wall,
            "generate_wall_s": generate_wall,
        },
        **record,
        "environment": environment(threads),
        "checks_failed": checks.failures,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
