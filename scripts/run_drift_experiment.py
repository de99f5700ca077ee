#!/usr/bin/env python3
"""End-to-end drift experiment on synthetic data.

Simulates a full dataset for one camera preset, calibrates every
(pose, focal setting) cell, and prints the recovered principal-point
trajectory and gravity offsets against the injected ones. Writes the
full report bundles (CSV, SVG, JSON) for both calibration methods plus
the trajectory and cross-validation analyses into the output directory.
Exits with the first non-zero CLI exit code, or 0 when every command
succeeds. Errors before the CLI commands run exit as the CLI does, with
one `error:` line: 2 for an invalid configuration or an unwritable output
directory, 3 when the dataset cannot be generated, 4 when a DOWN cell
cannot be calibrated or there are fewer than 3 DOWN settings for a
trajectory.

Usage:
    python scripts/run_drift_experiment.py [--camera cam1] [--seed 0]
        [--noise 0.5] [--out-dir out/drift]
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from caliblab.analysis import analyze_drift, calibrate_cells
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

    cells = calibrate_cells(dataset, "geometric", DEFAULT_OUTLIER_THRESHOLD_PX)
    down = {index: result for (pose, index), result in cells.items() if pose is PoseLabel.DOWN}
    failed = next((err for err in down.values() if isinstance(err, CaliblabError)), None)
    if failed is not None:
        return _fail(str(failed), EXIT_CALIBRATION)
    pps = {key: result.intrinsics.pp for key, result in cells.items() if not isinstance(result, CaliblabError)}
    drift = analyze_drift(pps, len(dataset.poses()))
    if drift.trajectory is None:
        return _fail(drift.notices[0], EXIT_CALIBRATION)
    settings = dataset.settings()
    for index in drift.down_indices:
        result = down[index]
        print(
            f"  DOWN {settings[index].label_mm:5.1f} mm: pp = ({result.intrinsics.pp.u:9.2f}, "
            f"{result.intrinsics.pp.v:9.2f})  f = {result.intrinsics.f:9.1f} px  "
            f"rmse = {result.rmse:.3f} px"
        )
    trajectory = drift.trajectory
    injected = math.degrees(math.atan2(config.drift.drift_dir[1], config.drift.drift_dir[0])) % 180.0
    print(
        f"trajectory: direction {trajectory.direction_deg:.1f} deg "
        f"(injected {injected:.1f}), monotonicity {trajectory.monotonicity:+.2f}, "
        f"total shift {trajectory.total_shift_px:.1f} px "
        f"(injected {config.drift.drift_total:.0f})"
    )
    if drift.gravity is not None:
        offsets = ", ".join(f"{pose.value} {mag:.1f}" for pose, mag in drift.gravity.mean_offset_px.items())
        print(f"gravity: mean offsets {offsets} px (injected {config.drift.gravity_px:.0f})")
    for notice in drift.notices:
        print(f"notice: {notice}")

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
