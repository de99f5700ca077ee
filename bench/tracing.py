"""Spans around calls into caliblab, recorded from the benchmark's side.

The tracer replaces a public function at every module attribute of the
caliblab package that binds it (and `CalibrationView.from_points` on its
class), so calls made from inside the package are caught as well as the
benchmark's own. Each span records its name, start, end, parent, job id,
thread, whether it raised, and an optional per-call count and flag
(bytes, outliers, LM iterations and convergence). Spans stay in memory until `write`.

Spans opened on a thread with no open span of its own (the
`cross_validate` pool threads) take the innermost open span of the thread
that started the current job as their parent, so they count for that job.
"""

from __future__ import annotations

import functools
import itertools
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _text_len(args, kwargs, result):
    return len(result), 0


def _arg_text_len(index):
    def count(args, kwargs, result):
        text = args[index] if len(args) > index else kwargs.get("text", "")
        return len(text), 0

    return count


def _outlier_count(args, kwargs, result):
    return len(result[1]), 0


def _lm_diagnostics(args, kwargs, result):
    return result.diagnostics.get("lm_iterations", 0), int(bool(result.diagnostics.get("converged")))


# (module, attribute, per-call count). The count hook maps the arguments
# and return value of a call that returned normally to (value, flag):
# byte or outlier counts, or LM iterations and whether LM converged.
TARGETS = (
    ("synth", "generate_dataset", None),
    ("synth", "generate_view", None),
    ("calibrate", "CalibrationView.from_points", None),
    ("geometry", "estimate_homography", None),
    ("geometry", "symmetric_transfer_error", None),
    ("principal_line", "principal_line", None),
    ("principal_line", "flag_outlier_lines", _outlier_count),
    ("principal_line", "estimate_pp", None),
    ("calibrate", "calibrate_geometric", None),
    ("calibrate", "calibrate_algebraic", None),
    ("calibrate", "refine", _lm_diagnostics),
    ("calibrate", "refit_view_pose", None),
    ("calibrate", "extrinsics_from_homography", None),
    ("rotations", "rodrigues", None),
    ("rotations", "rotate_point_jacobian", None),
    ("analysis", "cross_validate", None),
    ("analysis", "analyze_trajectory", None),
    ("analysis", "analyze_gravity", None),
    ("dataset_io", "dumps_dataset", _text_len),
    ("dataset_io", "loads_dataset", _arg_text_len(0)),
    ("reports", "atomic_write", _arg_text_len(1)),
    ("reports", "render_pp_scatter_svg", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_calibrate", None),
    ("cli", "cmd_analyze", None),
)

CLI_COMMANDS = ("simulate", "calibrate", "analyze")

# Layers reported as calls and self time per job.
SELF_TIMED = (
    "synth.generate_dataset",
    "synth.generate_view",
    "calibrate.CalibrationView.from_points",
    "geometry.estimate_homography",
    "geometry.symmetric_transfer_error",
    "principal_line.principal_line",
    "principal_line.flag_outlier_lines",
    "principal_line.estimate_pp",
    "calibrate.calibrate_geometric",
    "calibrate.calibrate_algebraic",
    "calibrate.refine",
    "calibrate.refit_view_pose",
    "calibrate.extrinsics_from_homography",
    "rotations.rodrigues",
    "rotations.rotate_point_jacobian",
    "reports.atomic_write",
)

# Every per-layer metric a traced run prints, in BENCHMARK.json order.
PER_LAYER = (
    ("import.caliblab_ms", "ms"),
    ("import.scipy_stats_ms", "ms"),
    *((f"{name}.{kind}", unit) for name in SELF_TIMED for kind, unit in (("calls", "count"), ("self_ms", "ms"))),
    ("principal_line.principal_line.degenerate", "count"),
    ("principal_line.flag_outlier_lines.outliers", "count"),
    ("principal_line.loo_estimates_per_bundle", "ratio"),
    ("calibrate.refine.lm_iterations", "count"),
    ("calibrate.refine.converged_frac", "ratio"),
    ("calibrate.refit_view_pose.failed", "count"),
    ("analysis.cross_validate.calls", "count"),
    ("analysis.cross_validate.total_ms", "ms"),
    ("analysis.cross_validate.busy_ratio", "ratio"),
    ("analysis.analyze_trajectory.self_ms", "ms"),
    ("analysis.analyze_gravity.self_ms", "ms"),
    ("dataset_io.dumps_dataset.self_ms", "ms"),
    ("dataset_io.dumps_dataset.bytes", "bytes"),
    ("dataset_io.loads_dataset.self_ms", "ms"),
    ("dataset_io.loads_dataset.bytes", "bytes"),
    ("reports.atomic_write.bytes", "bytes"),
    ("reports.render_pp_scatter_svg.self_ms", "ms"),
    *((f"cli.{command}.total_ms", "ms") for command in CLI_COMMANDS),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


def _caliblab_modules():
    return [m for name, m in list(sys.modules.items()) if name == "caliblab" or name.startswith("caliblab.")]


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._job_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin_job(self, job: int) -> None:
        self.job = job
        self._job_stack = self._stack()

    def _wrap(self, name: str, fn, count):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                job_stack = tracer._job_stack
                parent = job_stack[-1] if job_stack and job_stack is not stack else -1
            idx = next(ids)
            stack.append(idx)
            raised = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                end = clock()
                stack.pop()
                value, flag = count(args, kwargs, result) if count is not None and not raised else (0, 0)
                spans.append((idx, name_id, start, end, parent, tracer.job, get_ident(), raised, value, flag))

        return traced

    def install(self) -> None:
        modules = _caliblab_modules()
        for module_name, attr, count in TARGETS:
            module = sys.modules.get(f"caliblab.{module_name}")
            name = f"{module_name}.{attr}"
            if attr == "CalibrationView.from_points":
                cls = getattr(module, "CalibrationView", None)
                original = cls.__dict__.get("from_points") if cls is not None else None
                if original is None:
                    continue
                setattr(cls, "from_points", classmethod(self._wrap(name, original.__func__, count)))
                self._patches.append((cls, "from_points", original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path, t0: float) -> None:
        """Write every span as columns of one compressed .npz file."""
        rows = sorted(self.spans)
        columns = list(zip(*rows)) if rows else [()] * 10
        threads = sorted(set(columns[6]))
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.array(columns[0], dtype=np.int64),
            name=np.array(columns[1], dtype=np.int16),
            start_s=np.array(columns[2], dtype=float) - t0,
            end_s=np.array(columns[3], dtype=float) - t0,
            parent=np.array(columns[4], dtype=np.int64),
            job=np.array(columns[5], dtype=np.int32),
            thread=np.array([threads.index(t) for t in columns[6]], dtype=np.int16),
            raised=np.array(columns[7], dtype=np.int8),
            value=np.array(columns[8], dtype=float),
            flag=np.array(columns[9], dtype=np.int8),
        )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, job_walls: list[float], job_thread: int) -> dict[str, float]:
    """Per-layer figures of a traced run, normalised per job.

    `calls`, `self_ms` and byte and failure counts are per job; `total_ms`
    is inclusive time per call; ratios are over the whole run. Self time
    is a span's duration minus the union of its children's intervals.
    """
    jobs = max(1, len(job_walls))
    by_id = {s[0]: s for s in tracer.spans}
    children = defaultdict(list)
    roots = defaultdict(list)
    for s in tracer.spans:
        if s[4] >= 0:
            children[s[4]].append((s[2], s[3]))
        elif s[6] == job_thread:
            roots[s[5]].append((s[2], s[3]))

    agg = defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0, "raised": 0, "value": 0.0, "flag": 0})
    parent_name = {}
    for s in tracer.spans:
        idx, name_id, start, end, parent, _, _, raised, value, flag = s
        name = tracer.names[name_id]
        entry = agg[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += (end - start) - _covered(children.get(idx, ()), start, end)
        entry["raised"] += raised
        entry["value"] += value
        entry["flag"] += flag
        if parent >= 0 and parent in by_id:
            parent_name[idx] = tracer.names[by_id[parent][1]]

    def per_job(name, field, scale=1.0):
        return agg[name][field] * scale / jobs if name in agg else 0.0

    def per_call(name, field, scale=1.0):
        calls = agg[name]["calls"] if name in agg else 0
        return agg[name][field] * scale / calls if calls else 0.0

    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.calls"] = per_job(name, "calls")
        out[f"{name}.self_ms"] = per_job(name, "self", 1e3)
    out["principal_line.principal_line.degenerate"] = per_job("principal_line.principal_line", "raised")
    out["principal_line.flag_outlier_lines.outliers"] = per_job("principal_line.flag_outlier_lines", "value")
    bundles = agg["principal_line.flag_outlier_lines"]["calls"] if "principal_line.flag_outlier_lines" in agg else 0
    loo = sum(
        1
        for s in tracer.spans
        if tracer.names[s[1]] == "principal_line.estimate_pp"
        and parent_name.get(s[0]) == "principal_line.flag_outlier_lines"
    )
    out["principal_line.loo_estimates_per_bundle"] = loo / bundles if bundles else 0.0
    out["calibrate.refine.lm_iterations"] = per_call("calibrate.refine", "value")
    out["calibrate.refine.converged_frac"] = per_call("calibrate.refine", "flag")
    out["calibrate.refit_view_pose.failed"] = per_job("calibrate.refit_view_pose", "raised")

    out["analysis.cross_validate.calls"] = per_job("analysis.cross_validate", "calls")
    out["analysis.cross_validate.total_ms"] = per_call("analysis.cross_validate", "total", 1e3)
    xval_total = agg["analysis.cross_validate"]["total"] if "analysis.cross_validate" in agg else 0.0
    refit_busy = sum(
        s[3] - s[2]
        for s in tracer.spans
        if tracer.names[s[1]] == "calibrate.refit_view_pose"
        and parent_name.get(s[0]) == "analysis.cross_validate"
    )
    out["analysis.cross_validate.busy_ratio"] = refit_busy / xval_total if xval_total else 0.0
    out["analysis.analyze_trajectory.self_ms"] = per_job("analysis.analyze_trajectory", "self", 1e3)
    out["analysis.analyze_gravity.self_ms"] = per_job("analysis.analyze_gravity", "self", 1e3)
    for name in ("dataset_io.dumps_dataset", "dataset_io.loads_dataset"):
        out[f"{name}.self_ms"] = per_job(name, "self", 1e3)
        out[f"{name}.bytes"] = per_job(name, "value")
    out["reports.atomic_write.bytes"] = per_job("reports.atomic_write", "value")
    out["reports.render_pp_scatter_svg.self_ms"] = per_job("reports.render_pp_scatter_svg", "self", 1e3)
    for command in CLI_COMMANDS:
        out[f"cli.{command}.total_ms"] = per_call(f"cli.cmd_{command}", "total", 1e3)

    covered = sum(_covered(roots.get(job, ()), -float("inf"), float("inf")) for job in range(len(job_walls)))
    out["trace.coverage_frac"] = covered / sum(job_walls) if job_walls else 0.0
    return out


def import_times_ms(env: dict, cwd: Path) -> dict[str, float]:
    """Cumulative import time of caliblab and scipy.stats in a fresh child
    interpreter, from `python -X importtime`. A module the package no
    longer imports reads 0."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import caliblab"],
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import probe exited {proc.returncode}: {proc.stderr[-500:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, package = (part.strip() for part in line[len("import time:"):].split("|"))
        if cum.isdigit():
            cumulative[package] = int(cum) / 1e3
    return {
        "import.caliblab_ms": cumulative.get("caliblab", 0.0),
        "import.scipy_stats_ms": cumulative.get("scipy.stats", 0.0),
    }
