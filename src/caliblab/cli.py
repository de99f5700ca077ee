"""Command-line entry points.

Exit codes: 0 success, 2 configuration or input validation failure,
3 dataset generation failure, 4 calibration failure in one or more cells
(partial CSV is still written), 5 too many missing cells for the
requested analysis (more than 25 percent absent).
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
from .errors import BoardOutOfView, CaliblabError, ConfigError, DegenerateSystem, TooFewPoints
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
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read configuration {args.config}: {err}") from None
    if getattr(args, "camera", None):
        raw.setdefault("camera", args.camera)
    if args.seed is not None:
        raw["rng_seed"] = args.seed
    for key in ("tilt_deg", "noise_sigma_px"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return scene_config_from_dict(raw)

def cmd_simulate(args) -> int:
    try:
        scene = _load_scene(args)
    except ConfigError as err:
        return _fail(str(err), EXIT_CONFIG)
    try:
        dataset = generate_dataset(scene)
    except BoardOutOfView as err:
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
    return replace(dataset, cells={key: views[: args.max_views] for key, views in dataset.cells.items()})

def _error_mark(err: CaliblabError) -> str:
    # InsufficientViews is a DegenerateSystem: below the minimum view
    # count the constraint system is underdetermined either way.
    if isinstance(err, DegenerateSystem):
        return "DegenerateSystem"
    return type(err).__name__

def _calibrate_cells(
    dataset: Dataset, args
) -> tuple[list[list], dict[tuple[PoseLabel, int], CalibrationResult], int]:
    method = args.method
    rows: list[list] = []
    results: dict[tuple[PoseLabel, int], CalibrationResult] = {}
    failures = 0
    settings = dataset.settings()
    for pose in dataset.poses():
        for index, setting in enumerate(settings):
            views = dataset.cells.get((pose, setting))
            if views is None:
                continue
            truth = (dataset.ground_truth or {}).get((pose, setting))
            gt_cols = [truth[0].pp.u, truth[0].pp.v, truth[0].f] if truth else [None, None, None]
            try:
                result = analysis.calibrate_views(method, views, args.pl_outlier_px)
            except CaliblabError as err:
                failures += 1
                rows.append(
                    [pose.value, setting.label_mm, method, _error_mark(err), len(views)]
                    + [None, None, None, None, ""]
                    + gt_cols
                )
                continue
            results[(pose, index)] = result
            rows.append(
                [
                    pose.value,
                    setting.label_mm,
                    method,
                    "ok",
                    len(result.accepted_ids),
                    result.intrinsics.pp.u,
                    result.intrinsics.pp.v,
                    result.intrinsics.f,
                    result.rmse,
                    ";".join(result.flags),
                ]
                + gt_cols
            )
    return rows, results, failures

def _scatter_payload(results: dict[tuple[PoseLabel, int], CalibrationResult]) -> dict:
    payload: dict[str, list[tuple[int, float, float]]] = {}
    for (pose, index), result in sorted(results.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        payload.setdefault(pose.value, []).append(
            (index, result.intrinsics.pp.u, result.intrinsics.pp.v)
        )
    return payload

def cmd_calibrate(args) -> int:
    try:
        dataset = _read_dataset(args)
    except ConfigError as err:
        return _fail(str(err), EXIT_CONFIG)
    out_dir = Path(args.out_dir)
    rows, results, failures = _calibrate_cells(dataset, args)
    reports.atomic_write(out_dir / "results.csv", reports.rows_to_csv(reports.CALIBRATION_CSV_HEADER, rows))
    reports.atomic_write(out_dir / "pp_scatter.svg", reports.render_pp_scatter_svg(_scatter_payload(results)))
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
            for (pose, index), res in sorted(
                results.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
            )
        ],
    }
    reports.write_json_summary(out_dir / "summary.json", summary)
    if failures:
        print(f"{failures} of {len(rows)} cells failed; see results.csv", file=sys.stderr)
        return EXIT_CALIBRATION
    print(f"calibrated {len(rows)} cells -> {out_dir / 'results.csv'}")
    return EXIT_OK

def cmd_crossval(args) -> int:
    try:
        dataset = _read_dataset(args)
    except ConfigError as err:
        return _fail(str(err), EXIT_CONFIG)
    out_dir = Path(args.out_dir)
    if len(dataset.poses()) < 2:
        return _fail("cross-validation needs at least 2 camera poses in the dataset", EXIT_MISSING)
    report = analysis.cross_validate(dataset, method=args.method, pl_outlier_px=args.pl_outlier_px)
    rows = []
    for entry in report.settings:
        for a, pose_a in enumerate(entry.poses):
            for b, pose_b in enumerate(entry.poses):
                value = entry.matrix[a, b]
                rows.append(
                    [
                        entry.setting_index,
                        entry.focal_label_mm,
                        pose_a.value,
                        pose_b.value,
                        float(value) if math.isfinite(value) else None,
                    ]
                )
    reports.atomic_write(out_dir / "crossval.csv", reports.rows_to_csv(reports.CROSSVAL_CSV_HEADER, rows))
    summary = {
        "command": "crossval",
        "method": report.method,
        "notices": list(report.notices),
        "settings": [
            {
                "setting_index": e.setting_index,
                "focal_label_mm": e.focal_label_mm,
                "poses": [p.value for p in e.poses],
                "matrix": [[x if math.isfinite(x) else None for x in row] for row in e.matrix.tolist()],
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

def cmd_analyze(args) -> int:
    try:
        dataset = _read_dataset(args)
    except ConfigError as err:
        return _fail(str(err), EXIT_CONFIG)
    out_dir = Path(args.out_dir)
    rows, results, failures = _calibrate_cells(dataset, args)
    if rows and failures / len(rows) > MISSING_TOLERANCE:
        reports.atomic_write(
            out_dir / "results.csv", reports.rows_to_csv(reports.CALIBRATION_CSV_HEADER, rows)
        )
        return _fail(
            f"{failures} of {len(rows)} cells failed to calibrate (tolerance {MISSING_TOLERANCE:.0%})",
            EXIT_MISSING,
        )
    settings = dataset.settings()

    summary: dict = {"command": "analyze", "method": args.method, "notices": []}

    trajectory_rows: list[list] = []
    trajectory = None
    down_series = [
        (index, results[(PoseLabel.DOWN, index)])
        for index in range(len(settings))
        if (PoseLabel.DOWN, index) in results
    ]
    if len(down_series) >= 3:
        pps = [res.intrinsics.pp for _, res in down_series]
        try:
            trajectory = analysis.analyze_trajectory(pps)
        except TooFewPoints:
            trajectory = None
    if trajectory is not None:
        for (index, res), (du, dv) in zip(down_series, [(None, None), *trajectory.per_step]):
            pp = res.intrinsics.pp
            trajectory_rows.append([index, settings[index].label_mm, pp.u, pp.v, du, dv])
        summary["trajectory"] = {
            "direction_deg": trajectory.direction_deg,
            "monotonicity": trajectory.monotonicity,
            "total_shift_px": trajectory.total_shift_px,
            "degenerate": trajectory.degenerate,
        }
    else:
        summary["notices"].append("trajectory analysis skipped: needs 3 or more DOWN settings")
    reports.atomic_write(
        out_dir / "trajectory.csv", reports.rows_to_csv(reports.TRAJECTORY_CSV_HEADER, trajectory_rows)
    )

    gravity_rows: list[list] = []
    pose_set = dataset.poses()
    if trajectory is not None and not trajectory.degenerate and len(pose_set) >= 2:
        pps = {
            (pose, index): res.intrinsics.pp
            for (pose, index), res in results.items()
        }
        angle = math.radians(trajectory.direction_deg)
        try:
            gravity = analysis.analyze_gravity(pps, (math.cos(angle), math.sin(angle)))
        except CaliblabError as err:
            gravity = None
            summary["notices"].append(f"gravity analysis skipped: {err}")
        if gravity is not None:
            for index in sorted(gravity.offsets):
                for pose, (du, dv) in gravity.offsets[index].items():
                    gravity_rows.append(
                        [index, settings[index].label_mm, pose.value, du, dv, math.hypot(du, dv)]
                    )
            summary["gravity"] = {
                "mean_offset_px": {p.value: m for p, m in gravity.mean_offset_px.items()},
                "sideway_ratio": gravity.sideway_ratio
                if math.isfinite(gravity.sideway_ratio)
                else "inf",
            }
    else:
        summary["notices"].append("gravity analysis skipped: needs 2 or more poses and a drift axis")
    reports.atomic_write(
        out_dir / "gravity.csv", reports.rows_to_csv(reports.GRAVITY_CSV_HEADER, gravity_rows)
    )

    reports.atomic_write(out_dir / "results.csv", reports.rows_to_csv(reports.CALIBRATION_CSV_HEADER, rows))
    reports.atomic_write(out_dir / "pp_scatter.svg", reports.render_pp_scatter_svg(_scatter_payload(results)))
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
