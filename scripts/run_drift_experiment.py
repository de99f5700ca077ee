#!/usr/bin/env python3
"""End-to-end drift experiment on synthetic data.

Simulates a full dataset for one camera preset, calibrates every
(pose, focal setting) cell, and prints the recovered principal-point
trajectory against the injected one. Writes the full report bundles
(CSV, SVG, JSON) for both calibration methods plus the trajectory and
cross-validation analyses into the output directory. Exits with the
first non-zero CLI exit code, or 0 when every command succeeds. Errors
before the CLI commands run exit as the CLI does, with one `error:` line:
2 for an invalid configuration or an unwritable output directory, 3 when
the dataset cannot be generated, 4 when a DOWN cell cannot be calibrated.

Usage:
    python scripts/run_drift_experiment.py [--camera cam1] [--seed 0]
        [--noise 0.5] [--out-dir out/drift]
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from caliblab.analysis import analyze_trajectory, calibrate_views
from caliblab.cli import EXIT_CALIBRATION, EXIT_CONFIG, EXIT_GENERATION, _fail
from caliblab.cli import main as cli_main
from caliblab.dataset_io import write_dataset
from caliblab.errors import BoardOutOfView, CaliblabError, ConfigError
from caliblab.principal_line import DEFAULT_OUTLIER_THRESHOLD_PX
from caliblab.synth import PoseLabel, SceneConfig, generate_dataset


def run(camera: str, seed: int, noise: float, out_dir: Path) -> int:
    try:
        config = replace(SceneConfig.for_camera(camera), rng_seed=seed, noise_sigma_px=noise)
    except ConfigError as err:
        return _fail(str(err), EXIT_CONFIG)
    try:
        dataset = generate_dataset(config)
    except BoardOutOfView as err:
        return _fail(str(err), EXIT_GENERATION)

    dataset_path = out_dir / "dataset.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_dataset(dataset_path, dataset)
    except OSError as err:
        return _fail(f"cannot write {dataset_path}: {err}", EXIT_CONFIG)
    except ConfigError as err:
        return _fail(str(err), EXIT_CONFIG)
    print(f"dataset: {dataset.n_views()} views -> {dataset_path}")

    pps = []
    try:
        for setting in dataset.settings():
            views = dataset.cells[(PoseLabel.DOWN, setting)]
            result = calibrate_views("geometric", views, DEFAULT_OUTLIER_THRESHOLD_PX)
            pps.append(result.intrinsics.pp)
            print(
                f"  DOWN {setting.label_mm:5.1f} mm: pp = ({result.intrinsics.pp.u:9.2f}, "
                f"{result.intrinsics.pp.v:9.2f})  f = {result.intrinsics.f:9.1f} px  "
                f"rmse = {result.rmse:.3f} px"
            )
        trajectory = analyze_trajectory(pps)
    except CaliblabError as err:
        return _fail(str(err), EXIT_CALIBRATION)
    injected = math.degrees(math.atan2(config.drift.drift_dir[1], config.drift.drift_dir[0])) % 180.0
    print(
        f"trajectory: direction {trajectory.direction_deg:.1f} deg "
        f"(injected {injected:.1f}), monotonicity {trajectory.monotonicity:+.2f}, "
        f"total shift {trajectory.total_shift_px:.1f} px "
        f"(injected {config.drift.drift_total:.0f})"
    )

    codes = []
    for method in ("geometric", "algebraic"):
        code = cli_main(
            ["calibrate", "--dataset", str(dataset_path), "--out-dir", str(out_dir / method), "--method", method]
        )
        print(f"calibrate [{method}]: exit {code} -> {out_dir / method}")
        codes.append(code)
    for command in ("analyze", "crossval"):
        code = cli_main([command, "--dataset", str(dataset_path), "--out-dir", str(out_dir / command)])
        print(f"{command}: exit {code} -> {out_dir / command}")
        codes.append(code)
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--camera", default="cam1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.5)
    parser.add_argument("--out-dir", type=Path, default=Path("out/drift"))
    args = parser.parse_args()
    sys.exit(run(args.camera, args.seed, args.noise, args.out_dir))
