"""Command-line entry points.

Exit codes: 0 success, 2 configuration or input validation failure,
3 dataset generation failure (a board that does not fit the image, or a
view that cannot be built from its corners), 4 calibration failure in
one or more cells (partial CSV is still written), 5 too many missing
cells for the requested analysis (more than 25 percent absent).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, dataset_io, reports
from .calibrate import CalibrationResult
from .errors import BoardOutOfView, CaliblabError, ConfigError, DegenerateConfiguration, DegenerateSystem
from .geometry import Point2
from .principal_line import DEFAULT_OUTLIER_THRESHOLD_PX
from .synth import Dataset, PoseLabel, SceneConfig, generate_dataset, scene_config_from_dict

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_CALIBRATION = 4
EXIT_MISSING = 5

MISSING_TOLERANCE = 0.25

METHODS = ("geometric", "algebraic", "algebraic-refined")

def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code

def _load_scene(args) -> SceneConfig:
    raw: dict = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:  # a JSON integer past the digit limit is a ValueError
            raise ConfigError(f"cannot read configuration {args.config}: {err}") from None
    if getattr(args, "camera", None):
        raw["camera"] = args.camera
    if args.seed is not None:
        raw["rng_seed"] = args.seed
    for key in ("tilt_deg", "noise_sigma_px"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return scene_config_from_dict(raw)

def cmd_simulate(args) -> int:
    scene = _load_scene(args)
    try:
        dataset = generate_dataset(scene)
    except (BoardOutOfView, DegenerateConfiguration) as err:
        return _fail(str(err), EXIT_GENERATION)
    dataset_io.write_dataset(args.out, dataset)
    print(f"wrote {dataset.n_views()} views to {args.out}")
    return EXIT_OK

def _read_dataset(args) -> Dataset:
    """Read --dataset, keeping the first --max-views views of each cell."""
    path = Path(args.dataset)
    try:
        dataset = dataset_io.read_dataset(path)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read dataset {path}: {err}") from None
    if args.max_views is None:
        return dataset
    return replace(dataset, cells={key: cell.take(slice(args.max_views)) for key, cell in dataset.cells.items()})

def _error_mark(err: CaliblabError) -> str:
    # InsufficientViews is a DegenerateSystem: below the minimum view
    # count the constraint system is underdetermined either way.
    if isinstance(err, DegenerateSystem):
        return "DegenerateSystem"
    return type(err).__name__

def _calibrate_cells(dataset: Dataset, args) -> tuple[list[list], dict[tuple[PoseLabel, int], CalibrationResult]]:
    """The results.csv row of every cell, in calibration order, and the
    results of the cells that calibrated."""
    cells = analysis.calibrate_cells(dataset, args.method, args.pl_outlier_px)
    settings = dataset.settings()
    rows: list[list] = []
    for (pose, index), result in cells.items():
        setting = settings[index]
        truth = (dataset.ground_truth or {}).get((pose, setting))
        gt_cols = [truth[0].pp.u, truth[0].pp.v, truth[0].f] if truth else [None, None, None]
        if isinstance(result, CaliblabError):
            fit = [_error_mark(result), len(dataset.cells[(pose, setting)]), None, None, None, None, ""]
        else:
            intr = result.intrinsics
            fit = ["ok", len(result.views), intr.pp.u, intr.pp.v, intr.f, result.rmse, ";".join(result.flags)]
        rows.append([pose.value, setting.label_mm, args.method, *fit, *gt_cols])
    return rows, {key: result for key, result in cells.items() if isinstance(result, CalibrationResult)}

def _write_results(out_dir: Path, rows: list[list], pps: dict[tuple[PoseLabel, int], Point2]) -> None:
    reports.write_csv(out_dir / "results.csv", reports.CALIBRATION_CSV_HEADER, rows)
    reports.atomic_write(out_dir / "pp_scatter.svg", reports.render_pp_scatter_svg(pps))

def cmd_calibrate(args) -> int:
    dataset = _read_dataset(args)
    out_dir = Path(args.out_dir)
    rows, results = _calibrate_cells(dataset, args)
    failures = len(rows) - len(results)
    _write_results(out_dir, rows, {key: result.intrinsics.pp for key, result in results.items()})
    summary = {
        "command": "calibrate",
        "method": args.method,
        "cells_total": len(rows),
        "cells_failed": failures,
        "cells": [
            {
                "pose": pose.value,
                "setting_index": index,
                "u0_px": res.intrinsics.pp.u,
                "v0_px": res.intrinsics.pp.v,
                "f_px": res.intrinsics.f,
                "rmse_px": res.rmse,
                "flags": list(res.flags),
            }
            for (pose, index), res in sorted(results.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
        ],
    }
    reports.write_json_summary(out_dir / "summary.json", summary)
    if failures:
        print(f"{failures} of {len(rows)} cells failed; see results.csv", file=sys.stderr)
        return EXIT_CALIBRATION
    print(f"calibrated {len(rows)} cells -> {out_dir / 'results.csv'}")
    return EXIT_OK

def _finite_or_none(x: float) -> float | None:
    """A number as summary.json writes it: strict JSON has no NaN or
    infinity, so a non-finite value is null."""
    return x if math.isfinite(x) else None

def cmd_crossval(args) -> int:
    dataset = _read_dataset(args)
    out_dir = Path(args.out_dir)
    if len(dataset.poses()) < 2:
        return _fail("cross-validation needs at least 2 camera poses in the dataset", EXIT_MISSING)
    report = analysis.cross_validate(dataset, method=args.method, pl_outlier_px=args.pl_outlier_px)
    rows = []
    for entry in report.settings:
        for a, pose_a in enumerate(entry.poses):
            for b, pose_b in enumerate(entry.poses):
                rmse = _finite_or_none(float(entry.matrix[a, b]))
                rows.append([entry.setting_index, entry.focal_label_mm, pose_a.value, pose_b.value, rmse])
    reports.write_csv(out_dir / "crossval.csv", reports.CROSSVAL_CSV_HEADER, rows)
    summary = {
        "command": "crossval",
        "method": report.method,
        "notices": list(report.notices),
        "settings": [
            {
                "setting_index": e.setting_index,
                "focal_label_mm": e.focal_label_mm,
                "poses": [p.value for p in e.poses],
                "matrix": [[_finite_or_none(x) for x in row] for row in e.matrix.tolist()],
                "self_rmse": {p.value: r for p, r in e.self_rmse.items()},
            }
            for e in report.settings
        ],
    }
    reports.write_json_summary(out_dir / "summary.json", summary)
    absent = report.absent_fraction()
    if absent > MISSING_TOLERANCE:
        return _fail(
            f"{absent:.0%} of cross-validation entries are absent (tolerance {MISSING_TOLERANCE:.0%})",
            EXIT_MISSING,
        )
    print(f"cross-validated {len(report.settings)} settings -> {out_dir / 'crossval.csv'}")
    return EXIT_OK

def _drift_summary(drift: analysis.DriftReport) -> dict:
    """The notices, trajectory and gravity fields of a drift report in
    summary.json. The direction of a degenerate trajectory is NaN, so it
    is written as null."""
    summary: dict = {"notices": list(drift.notices)}
    if drift.trajectory is not None:
        fields = ("direction_deg", "monotonicity", "total_shift_px", "degenerate")
        summary["trajectory"] = {name: _finite_or_none(getattr(drift.trajectory, name)) for name in fields}
    if drift.gravity is not None:
        ratio = drift.gravity.sideway_ratio
        summary["gravity"] = {
            "mean_offset_px": {p.value: _finite_or_none(m) for p, m in drift.gravity.mean_offset_px.items()},
            "sideway_ratio": ratio if math.isfinite(ratio) else "inf",
        }
    return summary

def cmd_analyze(args) -> int:
    dataset = _read_dataset(args)
    out_dir = Path(args.out_dir)
    rows, results = _calibrate_cells(dataset, args)
    failures = len(rows) - len(results)
    if rows and failures / len(rows) > MISSING_TOLERANCE:
        reports.write_csv(out_dir / "results.csv", reports.CALIBRATION_CSV_HEADER, rows)
        return _fail(
            f"{failures} of {len(rows)} cells failed to calibrate (tolerance {MISSING_TOLERANCE:.0%})",
            EXIT_MISSING,
        )
    settings = dataset.settings()
    pps = {key: result.intrinsics.pp for key, result in results.items()}
    drift = analysis.analyze_drift(pps, len(dataset.poses()))
    summary: dict = {"command": "analyze", "method": args.method, **_drift_summary(drift)}
    if dataset.ground_truth:
        setting_index = {setting: k for k, setting in enumerate(settings)}
        truth = {
            (pose, setting_index[setting]): gt[0].pp for (pose, setting), gt in dataset.ground_truth.items()
        }
        summary["truth"] = _drift_summary(analysis.analyze_drift(truth, len(dataset.poses())))

    trajectory_rows: list[list] = []
    if drift.trajectory is not None:
        steps = [(None, None), *drift.trajectory.per_step]
        for index, (du, dv) in zip(drift.down_indices, steps):
            pp = pps[(PoseLabel.DOWN, index)]
            trajectory_rows.append([index, settings[index].label_mm, pp.u, pp.v, du, dv])
    reports.write_csv(out_dir / "trajectory.csv", reports.TRAJECTORY_CSV_HEADER, trajectory_rows)

    gravity_rows: list[list] = []
    if drift.gravity is not None:
        for index in sorted(drift.gravity.offsets):
            for pose, (du, dv) in drift.gravity.offsets[index].items():
                gravity_rows.append([index, settings[index].label_mm, pose.value, du, dv, math.hypot(du, dv)])
    reports.write_csv(out_dir / "gravity.csv", reports.GRAVITY_CSV_HEADER, gravity_rows)

    _write_results(out_dir, rows, pps)
    reports.write_json_summary(out_dir / "summary.json", summary)
    print(f"analyzed {len(rows)} cells -> {out_dir / 'summary.json'}")
    return EXIT_OK

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value

def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caliblab",
        description="Planar calibration laboratory: simulate, calibrate, cross-validate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset with ground truth")
    sim.add_argument("--out", required=True, help="output dataset JSON path")
    sim.add_argument("--config", help="scene configuration JSON path")
    sim.add_argument("--camera", help="camera preset id (cam1..cam4)")
    sim.add_argument("--seed", type=int, default=None, help="rng seed override")
    sim.add_argument("--tilt-deg", dest="tilt_deg", type=float, default=None)
    sim.add_argument("--noise-sigma", dest="noise_sigma_px", type=float, default=None)
    sim.set_defaults(func=cmd_simulate)

    for name, func in (("calibrate", cmd_calibrate), ("crossval", cmd_crossval), ("analyze", cmd_analyze)):
        cmd = sub.add_parser(name, help=f"{name} a dataset")
        cmd.add_argument("--dataset", required=True, help="dataset JSON path")
        cmd.add_argument("--out-dir", dest="out_dir", required=True, help="report output directory")
        cmd.add_argument("--method", choices=METHODS, default="geometric")
        cmd.add_argument("--max-views", dest="max_views", type=_positive_int, default=None)
        cmd.add_argument(
            "--pl-outlier-px", dest="pl_outlier_px", type=_positive_float, default=DEFAULT_OUTLIER_THRESHOLD_PX
        )
        cmd.set_defaults(func=func)

    return parser

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        return _fail(str(err), EXIT_CONFIG)

if __name__ == "__main__":
    sys.exit(main())
