"""The benchmark's three workloads.

Each workload derives every input from the workload seed, runs one job at
a time through `job(i)` (a pure function of the seed and the job index),
and turns the outputs of its first `acc_jobs` jobs into recovery error
figures and a sha256 digest. Only `setup` and `job` are timed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# The CLI's documented report headers (README, "Command line").
CALIBRATION_HEADER = [
    "pose", "focal_label_mm", "method", "status", "n_views", "u0_px", "v0_px", "f_px",
    "rmse_px", "flagged_views", "gt_u0_px", "gt_v0_px", "gt_f_px",
]
TRAJECTORY_HEADER = ["setting_index", "focal_label_mm", "u0_px", "v0_px", "step_du_px", "step_dv_px"]
GRAVITY_HEADER = ["setting_index", "focal_label_mm", "pose", "offset_u_px", "offset_v_px", "offset_mag_px"]

CAMERA = "cam1"
NOISE_SIGMA_PX = 0.5
CELLS_PER_DATASET = 28  # cam1: 4 poses x 7 focal settings, 8 views each
CHILD_TIMEOUT_S = 150


def caliblab(name: str):
    return importlib.import_module(f"caliblab.{name}")


def job_seed(seed: int, index: int) -> int:
    """Scene seed of the index-th dataset of a run with the given workload seed.

    The seeds are spaced 256 apart: `synth.mix_seed` XORs the pose index
    into the scene seed before its first mixing round, so scene seeds that
    differ only in their low bits share noise draws between poses, and a
    run's datasets would not be independent samples.
    """
    return (seed * 100_003 + index) << 8


@dataclass
class Job:
    attempted: int
    failed: int
    payload: object = None


@dataclass
class Cell:
    """One calibrated cell against its ground truth."""

    u0: float
    v0: float
    f: float
    rmse: float
    gt_u0: float
    gt_v0: float
    gt_f: float

    @property
    def pp_err(self) -> float:
        return math.hypot(self.u0 - self.gt_u0, self.v0 - self.gt_v0)

    @property
    def f_err_rel(self) -> float:
        return abs(self.f - self.gt_f) / self.gt_f


def recovery(cells: list[Cell], reproj: list[float]) -> dict[str, float]:
    """Recovery error over the accuracy set. The maxima are recorded but
    not bounded: they swing too much from seed to seed (README)."""
    pp = np.array([c.pp_err for c in cells])
    fr = np.array([c.f_err_rel for c in cells])
    return {
        "pp_err_mean_px": float(pp.mean()),
        "pp_err_p90_px": float(np.percentile(pp, 90)),
        "pp_err_max_px": float(pp.max()),
        "f_err_mean_rel": float(fr.mean()),
        "f_err_max_rel": float(fr.max()),
        "rmse_mean_px": float(np.mean(reproj)),
        "cells": len(cells),
    }


def _cell(result, truth) -> Cell:
    intr = result.intrinsics
    return Cell(intr.pp.u, intr.pp.v, intr.f, result.rmse, truth.pp.u, truth.pp.v, truth.f)


def _digest_floats(rows) -> str:
    text = "\n".join(",".join(f"{x:.9g}" for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    acc_jobs = 1
    min_jobs = 11  # the tail percentile needs ten jobs beyond it
    cycle = 1  # a run ends on a whole cycle of this many jobs
    in_children = False  # the timed jobs run in child processes

    def __init__(self, seed: int, work_dir: Path, child_env: dict, checks):
        self.seed = seed
        self.work_dir = work_dir
        self.child_env = child_env
        self.checks = checks
        self.synth = caliblab("synth")
        self.calibrate = caliblab("calibrate")
        self.analysis = caliblab("analysis")
        self.errors = caliblab("errors")

    def scene(self, index: int):
        return self.synth.SceneConfig.for_camera(
            CAMERA, noise_sigma_px=NOISE_SIGMA_PX, rng_seed=job_seed(self.seed, index)
        )

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, index: int) -> Job:
        raise NotImplementedError

    def traced_job(self, index: int) -> Job:
        """The in-process form of a job, as the traced run times it."""
        return self.job(index)

    def warm_up(self) -> int | None:
        """One untimed job, so lazy initialisation in numpy and the package
        is not charged to the first timed job. Returns the number of
        threads `cross_validate` used, where the workload calls it."""
        self.job(0)
        return None

    def finish(self, jobs: list[Job], accuracy: bool) -> dict:
        """Check every job's outputs; with `accuracy`, also return the
        recovery figures and digest of the first `acc_jobs` jobs."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class McGeometric(Workload):
    """generate_dataset + calibrate_geometric on 28 cells + trajectory and
    gravity analysis, one scene seed per job."""

    name = "mc_geometric"
    acc_jobs = 24

    def setup(self) -> None:
        self.base = self.scene(0)

    def job(self, index: int) -> Job:
        scene = replace(self.base, rng_seed=job_seed(self.seed, index))
        dataset = self.synth.generate_dataset(scene)
        settings = dataset.settings()
        cells: list[Cell] = []
        pps = {}
        failed = 0
        for (pose, setting), views in dataset.cells.items():
            try:
                result = self.calibrate.calibrate_geometric(views)
            except self.errors.CaliblabError:
                failed += 1
                continue
            cells.append(_cell(result, dataset.ground_truth[(pose, setting)][0]))
            pps[(pose, settings.index(setting))] = result.intrinsics.pp
        down = self.synth.PoseLabel.DOWN
        series = [pps[(down, k)] for k in range(len(settings)) if (down, k) in pps]
        analysed = True
        try:
            trajectory = self.analysis.analyze_trajectory(series)
            angle = math.radians(trajectory.direction_deg)
            self.analysis.analyze_gravity(pps, (math.cos(angle), math.sin(angle)))
        except (self.errors.CaliblabError, ValueError):
            analysed = False
        return Job(len(dataset.cells), failed, (cells, analysed))

    def finish(self, jobs: list[Job], accuracy: bool) -> dict:
        bad = [i for i, job in enumerate(jobs) if not job.payload[1]]
        self.checks.require(not bad, "mc_geometric trajectory and gravity analysis ran on every job", f"failed on jobs {bad}")
        if not accuracy:
            return {}
        cells = [c for job in jobs[: self.acc_jobs] for c in job.payload[0]]
        out = recovery(cells, [c.rmse for c in cells])
        out["digest"] = _digest_floats((c.u0, c.v0, c.f) for c in cells)
        return out


class Crossval(Workload):
    """One cross_validate call (geometric, default pool) per job, cycling
    over datasets generated in set-up."""

    name = "crossval"
    n_datasets = 6
    acc_jobs = n_datasets

    def setup(self) -> None:
        self.datasets = [self.synth.generate_dataset(self.scene(k)) for k in range(self.n_datasets)]

    def warm_up(self) -> int | None:
        """Count the threads that run pose refits inside cross_validate
        during the untimed job; None if analysis has no such binding."""
        original = getattr(self.analysis, "refit_view_pose", None)
        if original is None:
            self.job(0)
            return None
        seen = set()

        def counting(*args, **kwargs):
            seen.add(threading.get_ident())
            return original(*args, **kwargs)

        self.analysis.refit_view_pose = counting
        try:
            self.job(0)
        finally:
            self.analysis.refit_view_pose = original
        return len(seen)

    def job(self, index: int) -> Job:
        report = self.analysis.cross_validate(self.datasets[index % self.n_datasets], method="geometric")
        matrices = [s.matrix for s in report.settings]
        attempted = sum(m.size for m in matrices)
        failed = sum(int(np.sum(~np.isfinite(m))) for m in matrices)
        return Job(attempted, failed, (index % self.n_datasets, matrices))

    def finish(self, jobs: list[Job], accuracy: bool) -> dict:
        diag_bad = [i for i, job in enumerate(jobs) if not all(np.all(np.isfinite(np.diag(m))) for m in job.payload[1])]
        self.checks.require(not diag_bad, "every crossval diagonal entry is finite", f"non-finite on jobs {diag_bad}")
        first: dict[int, bytes] = {}
        differs = []
        for i, job in enumerate(jobs):
            dataset, matrices = job.payload
            raw = b"".join(m.tobytes() for m in matrices)
            if first.setdefault(dataset, raw) != raw:
                differs.append(i)
        self.checks.require(not differs, "crossval matrices repeat bit for bit on the same dataset", f"jobs {differs}")
        if not accuracy:
            return {}
        # cross_validate does not return its per-pose intrinsics, so the
        # recovery error comes from the same geometric calibrations rerun
        # on the workload's datasets after timing.
        cells = []
        for dataset in self.datasets:
            for key, views in dataset.cells.items():
                cells.append(_cell(self.calibrate.calibrate_geometric(views), dataset.ground_truth[key][0]))
        entries = [x for job in jobs[: self.acc_jobs] for m in job.payload[1] for x in m.ravel() if math.isfinite(x)]
        out = recovery(cells, entries)
        out["digest"] = hashlib.sha256(b"".join(first[k] for k in sorted(first))).hexdigest()
        return out


class CliFiles(Workload):
    """`python -m caliblab` children, cycling simulate -> calibrate
    (algebraic-refined) -> analyze over one scene seed per cycle."""

    name = "cli_files"
    acc_jobs = 9  # three whole cycles
    cycle = 3
    in_children = True

    def setup(self) -> None:
        self.runs = self.work_dir / "runs"
        shutil.rmtree(self.runs, ignore_errors=True)
        self.runs.mkdir(parents=True)
        self.cli = caliblab("cli")

    def argv(self, index: int, root: Path) -> list[str]:
        cycle, step = divmod(index, 3)
        cell = root / f"c{cycle}"
        dataset = str(cell / "dataset.json")
        if step == 0:
            cell.mkdir(parents=True, exist_ok=True)
            return ["simulate", "--camera", CAMERA, "--seed", str(job_seed(self.seed, cycle)), "--out", dataset]
        if step == 1:
            return ["calibrate", "--dataset", dataset, "--out-dir", str(cell / "calibrate"), "--method", "algebraic-refined"]
        return ["analyze", "--dataset", dataset, "--out-dir", str(cell / "analyze")]

    def job(self, index: int) -> Job:
        argv = self.argv(index, self.runs)
        proc = subprocess.run(
            [sys.executable, "-m", "caliblab", *argv],
            env=self.child_env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return Job(CELLS_PER_DATASET, 0, (argv, proc.returncode, proc.stderr.strip()[-300:]))

    def warm_up(self) -> int | None:
        """CLI children start fresh every job: nothing to warm."""
        return None

    def traced_job(self, index: int) -> Job:
        argv = self.argv(index, self.runs)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(argv)
        return Job(CELLS_PER_DATASET, 0, (argv, code, sink.getvalue().strip()[-300:]))

    def _header(self, path: Path) -> list[str] | None:
        if not path.is_file():
            return None
        with open(path, newline="", encoding="utf-8") as fh:
            return next(csv.reader(fh), None)

    def _rows(self, path: Path) -> list[dict]:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def finish(self, jobs: list[Job], accuracy: bool) -> dict:
        for job in jobs:
            argv, code, stderr = job.payload
            if not self.checks.require(code == 0, "every cli_files child exits 0", f"{argv[0]} exited {code}: {stderr}"):
                job.failed = CELLS_PER_DATASET
                continue
            if argv[0] == "simulate":
                path = Path(argv[-1])
                ok = path.is_file()
                self.checks.require(ok, "simulate writes its dataset", str(path))
                if ok:
                    job.attempted = len(json.loads(path.read_text(encoding="utf-8"))["cells"])
                continue
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            for name in ("results.csv", "pp_scatter.svg", "summary.json"):
                self.checks.require((out_dir / name).is_file(), f"{argv[0]} writes {name}", str(out_dir))
            expected = {"results.csv": CALIBRATION_HEADER}
            if argv[0] == "analyze":
                expected.update({"trajectory.csv": TRAJECTORY_HEADER, "gravity.csv": GRAVITY_HEADER})
            for name, header in expected.items():
                found = self._header(out_dir / name)
                self.checks.require(found == header, f"{argv[0]} {name} has the documented header", f"got {found}")
            if (out_dir / "results.csv").is_file():
                rows = self._rows(out_dir / "results.csv")
                job.attempted = len(rows)
                job.failed = sum(1 for r in rows if r["status"] != "ok")
        if not accuracy:
            return {}
        cells: list[Cell] = []
        digest = hashlib.sha256()
        for job in jobs[: self.acc_jobs]:
            argv = job.payload[0]
            if argv[0] == "simulate":
                files = [Path(argv[-1])]
            else:
                out_dir = Path(argv[argv.index("--out-dir") + 1])
                files = sorted(p for p in out_dir.iterdir() if p.suffix in (".csv", ".svg"))
                for r in self._rows(out_dir / "results.csv"):
                    if r["status"] == "ok":
                        cells.append(Cell(*(float(r[k]) for k in ("u0_px", "v0_px", "f_px", "rmse_px", "gt_u0_px", "gt_v0_px", "gt_f_px"))))
            for path in files:
                digest.update(path.relative_to(self.runs).as_posix().encode() + b"\0" + path.read_bytes())
        out = recovery(cells, [c.rmse for c in cells])
        out["digest"] = digest.hexdigest()
        return out

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (McGeometric, Crossval, CliFiles)}
