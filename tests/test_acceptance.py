"""Acceptance suite: one test per release criterion, each printing a
PASS line when it holds. Expected values come from forward-constructed
scenes, Monte-Carlo oracles over fixed seeds, or the CLI contract."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from caliblab.analysis import analyze_gravity, analyze_trajectory, cross_validate
from caliblab.calibrate import _views_problem, calibrate_algebraic, calibrate_geometric
from caliblab.cli import main
from caliblab.errors import DegenerateView
from caliblab.principal_line import principal_lines
from caliblab.synth import (
    DriftModel,
    FocalSetting,
    PoseLabel,
    SceneConfig,
    generate_dataset,
)

from conftest import (
    bias_half_board,
    canonical_homography,
    dense_joint_jacobian,
    joint_stack,
    line_distance,
    only,
    oracle_rot_x,
    oracle_rot_z,
    protocol_distance,
    retraction_differences,
    scene_homography,
    shared_camera,
    tilted_scene_cell,
    view_points,
    with_image,
)

NNE_DEG = math.degrees(math.atan2(-math.cos(math.radians(22.5)), math.sin(math.radians(22.5)))) % 180.0


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def angle_distance(a, b):
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def down_pp_series(dataset):
    return [
        calibrate_geometric(dataset.cells[(PoseLabel.DOWN, s)]).intrinsics.pp
        for s in dataset.settings()
    ]


def test_exact_recovery_oracle():
    """Both calibrators recover ground truth per cell on the noise-free
    default dataset, in under five seconds end to end."""
    config = replace(SceneConfig.for_camera("cam1"), noise_sigma_px=0.0)
    start = time.perf_counter()
    dataset = generate_dataset(config)
    assert dataset.n_views() == 224
    for (pose, setting), views in dataset.cells.items():
        intr_gt, _, _ = dataset.ground_truth[(pose, setting)]
        geo = calibrate_geometric(views)
        assert math.hypot(geo.intrinsics.pp.u - intr_gt.pp.u, geo.intrinsics.pp.v - intr_gt.pp.v) < 0.01
        assert abs(geo.intrinsics.f - intr_gt.f) / intr_gt.f < 1e-4
        alg = calibrate_algebraic(views)
        assert abs(alg.intrinsics.f - intr_gt.f) / intr_gt.f < 1e-4
        pp_scale = math.hypot(intr_gt.pp.u, intr_gt.pp.v)
        assert math.hypot(alg.intrinsics.pp.u - intr_gt.pp.u, alg.intrinsics.pp.v - intr_gt.pp.v) < 1e-4 * pp_scale
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"full-dataset oracle took {elapsed:.2f}s"
    report("exact-recovery oracle")


def test_principal_line_incidence():
    """The closed-form axis passes through the true principal point for
    1000 random posed views; fronto-parallel input always raises."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        # coherent camera scenes: pp near the frame center, focal between
        # 0.7x and 3x the frame width, board-filling distances
        width = rng.uniform(2000.0, 8000.0)
        f = rng.uniform(0.7, 3.0) * width
        pp = (width / 2 + rng.uniform(-100.0, 100.0), width / 3 + rng.uniform(-100.0, 100.0))
        tilt = rng.uniform(20.0, 70.0)
        roll = rng.uniform(0.0, 360.0)
        dist = rng.uniform(0.08, 0.35) * f
        rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
        h = canonical_homography(scene_homography(f, pp, rot, [0.0, 0.0, dist]))
        line = only(principal_lines(h[None]))
        assert line_distance(line, pp) < 1e-9 * f
    for roll in (0.0, 30.0, 200.0):
        h = canonical_homography(scene_homography(3000.0, (3024.0, 2012.0), oracle_rot_z(roll), [0.0, 0.0, 900.0]))
        with pytest.raises(DegenerateView):
            only(principal_lines(h[None]))
    report("principal-line incidence")


def test_drift_reproduction_at_deployment_scale():
    """A 120 px injected drift under 0.5 px corner noise comes back with
    the right direction, monotone progression, and total magnitude."""
    hits = 0
    totals_ok = 0
    for seed in range(100):
        config = replace(
            SceneConfig.for_camera("cam1"),
            poses=(PoseLabel.DOWN,),
            noise_sigma_px=0.5,
            rng_seed=seed,
        )
        dataset = generate_dataset(config)
        trajectory = analyze_trajectory(down_pp_series(dataset))
        # the TLS axis representative lives in [0, 180), so only the
        # magnitude of the rank correlation is meaningful
        if angle_distance(trajectory.direction_deg, NNE_DEG) <= 10.0 and abs(trajectory.monotonicity) >= 0.9:
            hits += 1
        if abs(trajectory.total_shift_px - 120.0) <= 0.15 * 120.0:
            totals_ok += 1
    assert hits >= 95, f"direction/monotonicity held in only {hits}/100 seeds"
    assert totals_ok >= 95, f"total shift within 15% in only {totals_ok}/100 seeds"
    report("drift reproduction at deployment scale")


def test_gravity_reproduction_at_deployment_scale():
    """15 px pose-driven offsets are recovered inside the 10..20 px band
    with the W/E mirror pattern about the N offset."""
    base = SceneConfig.for_camera("cam1")
    hits = 0
    for seed in range(100):
        config = replace(
            base,
            focal_settings=base.focal_settings[:3],
            noise_sigma_px=0.5,
            rng_seed=seed,
        )
        dataset = generate_dataset(config)
        settings = dataset.settings()
        pps = {
            (pose, settings.index(setting)): calibrate_geometric(views).intrinsics.pp
            for (pose, setting), views in dataset.cells.items()
        }
        gravity = analyze_gravity(pps, config.drift.drift_dir)
        mags = [gravity.mean_offset_px[p] for p in (PoseLabel.N, PoseLabel.W, PoseLabel.E)]
        mean_off = {
            p: np.mean([gravity.offsets[i][p] for i in gravity.offsets], axis=0)
            for p in (PoseLabel.N, PoseLabel.W, PoseLabel.E)
        }
        n = mean_off[PoseLabel.N]
        cross_w = n[0] * mean_off[PoseLabel.W][1] - n[1] * mean_off[PoseLabel.W][0]
        cross_e = n[0] * mean_off[PoseLabel.E][1] - n[1] * mean_off[PoseLabel.E][0]
        if all(10.0 <= m <= 20.0 for m in mags) and cross_w * cross_e < 0.0:
            hits += 1
    assert hits >= 90, f"gravity pattern held in only {hits}/100 seeds"
    report("gravity reproduction at deployment scale")


def _crossval_matrices(gravity_px, sigma, seed):
    base = SceneConfig.for_camera("cam1")
    config = replace(
        base,
        focal_settings=base.focal_settings[:2],
        noise_sigma_px=sigma,
        rng_seed=seed,
        drift=DriftModel(pp0=base.drift.pp0, gravity_px=gravity_px),
    )
    return cross_validate(generate_dataset(config)).settings


def test_crossval_penalty():
    """Frozen-intrinsics transfer across poses costs reprojection error:
    strictly positive for every injected shift, growing with the shift,
    and absent (uniform matrix) when nothing is injected."""
    seeds = (0, 1, 2)
    for seed in seeds:
        excesses = []
        for delta in (25.0, 50.0, 100.0):
            per_setting = []
            for entry in _crossval_matrices(delta, 0.1, seed):
                m = entry.matrix
                n = len(entry.poses)
                for a in range(n):
                    for b in range(n):
                        if a != b:
                            assert m[a, b] > m[b, b], (
                                f"delta={delta} seed={seed}: transfer "
                                f"{entry.poses[a].value}->{entry.poses[b].value} not penalized"
                            )
                per_setting.append(m[~np.eye(n, dtype=bool)].mean() - np.diag(m).mean())
            excesses.append(per_setting)
        for s in range(len(excesses[0])):
            series = [e[s] for e in excesses]
            assert all(b >= a for a, b in zip(series, series[1:])), (
                f"seed={seed}: excess not nondecreasing in the injected shift: {series}"
            )
    # with nothing injected the matrix is uniform; averaging a few seeds
    # removes the per-cell chi-square wobble of the RMSE estimates
    accum = None
    uniform_seeds = (0, 1, 2, 3)
    for seed in uniform_seeds:
        mats = np.stack([entry.matrix for entry in _crossval_matrices(0.0, 0.1, seed)])
        accum = mats if accum is None else accum + mats
    mean_mats = accum / len(uniform_seeds)
    for m in mean_mats:
        assert (m.max() - m.min()) / m.mean() <= 0.05
    report("cross-validation penalty")


def test_few_views_behavior(tmp_path):
    """Two views per cell satisfy the geometric path; the algebraic conic
    system is degenerate below three general views."""
    scene = {
        "camera": "cam1",
        "focal_settings": [{"label_mm": 12.0, "f_px": 3000.0}],
        "poses": ["DOWN"],
        "rolls": [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0],
        "noise_sigma_px": 0.0,
        "rng_seed": 0,
    }
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(scene))
    ds = tmp_path / "ds.json"
    assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0

    out_geo = tmp_path / "geo"
    code = main(
        ["calibrate", "--dataset", str(ds), "--out-dir", str(out_geo), "--method", "geometric", "--max-views", "2"]
    )
    assert code == 0
    rows = (out_geo / "results.csv").read_text().splitlines()
    assert len(rows) == 2 and ",ok," in rows[1]

    out_alg = tmp_path / "alg"
    code = main(
        ["calibrate", "--dataset", str(ds), "--out-dir", str(out_alg), "--method", "algebraic", "--max-views", "2"]
    )
    assert code == 4
    rows = (out_alg / "results.csv").read_text().splitlines()
    assert len(rows) == 2 and ",DegenerateSystem," in rows[1]
    report("few-views behavior")


def test_numerical_hygiene(tmp_path):
    """Analytic LM Jacobian, rotation orthonormality, and command-level
    bit determinism."""
    rng = np.random.default_rng(77)
    for _ in range(10):
        cell, _ = tilted_scene_cell(
            f=float(rng.uniform(1500, 8000)),
            pp=(float(rng.uniform(1000, 4500)), float(rng.uniform(800, 3200))),
            tilt_deg=float(rng.uniform(25, 65)),
            rolls=[float(r) for r in rng.uniform(0, 360, 3)],
            sigma=0.3,
            rng=rng,
        )
        result = calibrate_geometric(cell)
        pts, image, mask, params = joint_stack(result)
        cam_map, cam_offset = shared_camera(1)
        residuals, _, retract = _views_problem(pts, image, mask, cam_map, cam_offset)
        jac = dense_joint_jacobian(params[0], pts[0], mask, cam_map, cam_offset[0])
        fd = retraction_differences(residuals, retract, params, head=3)[0]
        rel = np.abs(jac - fd).max(axis=0) / np.abs(fd).max(axis=0)
        assert rel.max() < 1e-4
        for rot in result.rot:
            assert np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9
            assert abs(np.linalg.det(rot) - 1.0) < 1e-9

    scene = {
        "camera": "cam1",
        "focal_settings": [{"label_mm": 12.0, "f_px": 3000.0}, {"label_mm": 24.0, "f_px": 6000.0}],
        "poses": ["DOWN", "N"],
        "rolls": [0.0, 45.0, 90.0, 135.0],
        "noise_sigma_px": 0.5,
        "rng_seed": 9,
    }
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(scene))
    files = []
    for tag in ("a", "b"):
        ds = tmp_path / f"ds-{tag}.json"
        rep = tmp_path / f"rep-{tag}"
        assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0
        assert main(["calibrate", "--dataset", str(ds), "--out-dir", str(rep)]) == 0
        assert main(["crossval", "--dataset", str(ds), "--out-dir", str(rep)]) == 0
        files.append(
            (
                ds.read_bytes(),
                (rep / "results.csv").read_bytes(),
                (rep / "crossval.csv").read_bytes(),
                (rep / "pp_scatter.svg").read_bytes(),
            )
        )
    assert files[0] == files[1]
    report("numerical hygiene")


def _corrupted_views(rolls, sigma, rng, bad_index=0):
    # 3 px shift of the far board half along the image u axis: the same
    # one-sided corner-detection skew a lopsided light source produces
    cell, _ = tilted_scene_cell(distance=protocol_distance(3000.0), rolls=rolls, sigma=sigma, rng=rng)
    uv = bias_half_board(*view_points(cell, bad_index), du=3.0, dv=0.0, split="y")
    return with_image(cell, bad_index, uv)


def test_outlier_screening():
    """A half-board 3 px bias is caught by leave-one-out screening, and
    screened calibration stays within 10x the clean tolerances."""
    flagged = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        views = _corrupted_views([k * 45.0 for k in range(8)], 0.5, rng)
        result = calibrate_geometric(views)
        if "v0" in result.flags:
            flagged += 1
    assert flagged >= 95, f"corrupted view flagged in only {flagged}/100 noisy sets"

    # noise-free captures with seed-jittered roll spacing: after the flag,
    # the surviving views are exact, so the 10x-tolerance bound is strict
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        rolls = [k * 45.0 + float(rng.uniform(-5.0, 5.0)) for k in range(8)]
        views = _corrupted_views(rolls, 0.0, rng)
        result = calibrate_geometric(views)
        assert "v0" in result.flags
        assert math.hypot(result.intrinsics.pp.u - 3024.0, result.intrinsics.pp.v - 2012.0) < 0.1
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-3
    report("outlier screening")
