"""Tests for reprojection metrics, trajectory and gravity analysis, and
pose-transfer cross-validation."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import caliblab
from caliblab import calibrate
from caliblab.analysis import (
    analyze_drift,
    analyze_gravity,
    analyze_trajectory,
    calibrate_cells,
    calibrate_views,
    cross_validate,
    spearman,
)
from caliblab.calibrate import (
    Cell,
    Intrinsics,
    _board_points,
    _project,
    _views_rmse,
    calibrate_algebraic,
    refine,
    refit_view_poses,
)
from caliblab.dataset_io import dumps_dataset, loads_dataset
from caliblab.errors import BehindCamera, CaliblabError, InsufficientViews, MissingPose, TooFewPoints
from caliblab.geometry import Point2
from caliblab.synth import DriftModel, FocalSetting, PoseLabel, SceneConfig, generate_dataset

from conftest import (
    build_cell,
    canonical_homography,
    dense_joint_jacobian,
    joint_stack,
    only,
    oracle_rot_x,
    scene_homography,
    shared_camera,
    short_view,
    tilted_scene_cell,
    view_points,
)


def crossval_config(gravity_px, sigma, seed, n_settings=1):
    settings = tuple(FocalSetting(10.0 + 5.0 * k, 3000.0 + 1500.0 * k) for k in range(n_settings))
    return SceneConfig(
        focal_settings=settings,
        noise_sigma_px=sigma,
        rng_seed=seed,
        drift=DriftModel(pp0=Point2(3024.0, 2012.0), gravity_px=gravity_px),
    )


class TestReprojectionRmse:
    def test_zero_for_generating_parameters(self):
        cell, truth = tilted_scene_cell()
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        rot = np.array([r for r, _ in truth])
        t = np.array([shift for _, shift in truth])
        for i in range(len(cell)):
            assert _views_rmse(intr, rot[i : i + 1], t[i : i + 1], cell.take([i])) < 1e-9
        assert _views_rmse(intr, rot, t, cell) < 1e-9

    def test_ragged_cell_equals_per_view_sums(self, rng):
        # each view's squared residuals summed alone over its real corners,
        # the sums added in view order: padding changes no bit
        source, truth = tilted_scene_cell(sigma=0.5, rng=rng)
        kept = [54, 27, 54, 20, 27, 54, 12, 54]
        cell = build_cell(
            source.ids,
            [source.board[i, :n] for i, n in enumerate(kept)],
            [source.image[i, :n] for i, n in enumerate(kept)],
        )
        intr = Intrinsics(3005.0, Point2(3020.0, 2015.0))
        rot = np.array([r for r, _ in truth])
        t = np.array([shift for _, shift in truth]) + 0.5
        sq = 0.0
        for i in range(len(cell)):
            board, image = view_points(cell, i)
            _, uv = _project(intr.f, (intr.pp.u, intr.pp.v), rot[i], t[i], _board_points(board))
            sq += float(np.sum((uv - image) ** 2))
        assert _views_rmse(intr, rot, t, cell) == math.sqrt(sq / sum(kept))

    def test_noise_floor_matches_sigma(self):
        # with the true parameters each residual axis is N(0, sigma), so
        # the RMSE concentrates near sigma * sqrt(2)
        sigma = 0.5
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        values = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cell, truth = tilted_scene_cell(rolls=[30.0], sigma=sigma, rng=rng)
            rot, t = truth[0]
            values.append(_views_rmse(intr, rot[None], t[None], cell))
        mean = float(np.mean(values))
        assert 0.8 * sigma * math.sqrt(2.0) <= mean <= 1.2 * sigma * math.sqrt(2.0)


class TestSpearman:
    def test_hand_computed(self):
        # ranks of y: (1, 3, 2, 4); rho = 1 - 6 * 2 / (4 * 15)
        assert spearman([1, 2, 3, 4], [10.0, 30.0, 20.0, 40.0]) == pytest.approx(0.8, abs=1e-15)

    def test_ties_take_average_ranks(self):
        # ranks of y: (1, 2, 3.5, 5, 3.5); r = 8 / sqrt(10 * 9.5)
        assert spearman([1, 2, 3, 4, 5], [5.0, 6.0, 7.0, 8.0, 7.0]) == pytest.approx(8.0 / math.sqrt(95.0), abs=1e-15)
        # ties in both series: ranks (1.5, 1.5, 3) against (1, 2.5, 2.5)
        assert spearman([0.0, 0.0, 1.0], [-1.0, 4.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_reversed_and_monotone_transform(self):
        assert spearman(np.arange(7), np.arange(7)[::-1]) == -1.0
        assert spearman(np.arange(7), np.exp(np.arange(7.0))) == 1.0

    def test_constant_series_is_undefined(self):
        assert math.isnan(spearman([1, 2, 3], [4.0, 4.0, 4.0]))

    def test_matches_scipy_bit_for_bit(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for n in range(3, 10):
            for _ in range(40):
                y = rng.normal(size=n)
                if rng.random() < 0.3:
                    y = np.round(y)
                if np.all(y == y[0]):
                    continue
                assert spearman(np.arange(n), y) == stats.spearmanr(np.arange(n), y).statistic

    def test_import_leaves_scipy_unloaded(self):
        src = Path(caliblab.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, caliblab; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestAnalyzeTrajectory:
    def test_exact_line(self):
        pps = [Point2(2000.0 + 10.0 * k, 1500.0 + 20.0 * k) for k in range(7)]
        report = analyze_trajectory(pps)
        assert report.direction_deg == pytest.approx(math.degrees(math.atan2(20.0, 10.0)), abs=1e-9)
        assert report.monotonicity == pytest.approx(1.0)
        assert report.total_shift_px == pytest.approx(6.0 * math.sqrt(500.0))
        assert len(report.per_step) == 6
        assert not report.degenerate

    def test_reversed_order_flips_monotonicity(self):
        pps = [Point2(2000.0 + 10.0 * k, 1500.0 + 20.0 * k) for k in range(7)][::-1]
        report = analyze_trajectory(pps)
        assert report.monotonicity == pytest.approx(-1.0)
        assert report.direction_deg == pytest.approx(math.degrees(math.atan2(20.0, 10.0)), abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            analyze_trajectory([Point2(0.0, 0.0), Point2(1.0, 1.0)])

    def test_degenerate_spread_flagged(self):
        report = analyze_trajectory([Point2(5.0, 5.0)] * 4)
        assert report.degenerate
        assert math.isnan(report.direction_deg)
        assert report.monotonicity == 0.0

    def test_direction_translation_invariant_rotation_equivariant(self, rng):
        pps = [Point2(float(u), float(v)) for u, v in rng.normal(0.0, 50.0, (6, 2))]
        base = analyze_trajectory(pps)
        shifted = analyze_trajectory([Point2(p.u + 123.0, p.v - 77.0) for p in pps])
        assert shifted.direction_deg == pytest.approx(base.direction_deg, abs=1e-9)
        theta = math.radians(30.0)
        c, s = math.cos(theta), math.sin(theta)
        rotated = analyze_trajectory([Point2(c * p.u - s * p.v, s * p.u + c * p.v) for p in pps])
        assert rotated.direction_deg == pytest.approx((base.direction_deg + 30.0) % 180.0, abs=1e-9)

    def test_full_pipeline_monte_carlo(self):
        # end-to-end: generated DOWN datasets, drift along NNE, noise 0.5
        injected = math.degrees(
            math.atan2(-math.cos(math.radians(22.5)), math.sin(math.radians(22.5)))
        ) % 180.0
        hits = 0
        for seed in range(30):
            config = replace(
                SceneConfig.for_camera("cam1"),
                poses=(PoseLabel.DOWN,),
                noise_sigma_px=0.5,
                rng_seed=seed,
            )
            dataset = generate_dataset(config)
            from caliblab.calibrate import calibrate_geometric

            pps = [
                calibrate_geometric(dataset.cells[(PoseLabel.DOWN, s)]).intrinsics.pp
                for s in dataset.settings()
            ]
            report = analyze_trajectory(pps)
            delta = abs(report.direction_deg - injected) % 180.0
            delta = min(delta, 180.0 - delta)
            if delta <= 10.0 and abs(report.monotonicity) >= 0.9:
                hits += 1
        assert hits >= 29


class TestAnalyzeGravity:
    def test_all_identical(self):
        pps = {(pose, i): Point2(100.0, 100.0) for pose in PoseLabel for i in range(3)}
        report = analyze_gravity(pps, (1.0, 0.0))
        assert report.sideway_ratio == 0.0
        assert all(
            off == (0.0, 0.0) for row in report.offsets.values() for off in row.values()
        )

    def test_perpendicular_offsets_diverge(self):
        pps = {(PoseLabel.DOWN, 0): Point2(0.0, 0.0), (PoseLabel.N, 0): Point2(0.0, 10.0)}
        report = analyze_gravity(pps, (1.0, 0.0))
        assert report.sideway_ratio == math.inf

    def test_missing_down(self):
        pps = {(PoseLabel.N, 0): Point2(0.0, 10.0)}
        with pytest.raises(MissingPose):
            analyze_gravity(pps, (1.0, 0.0))

    def test_full_pipeline_monte_carlo(self):
        from caliblab.calibrate import calibrate_geometric

        hits = 0
        for seed in range(20):
            config = replace(
                SceneConfig.for_camera("cam1"),
                focal_settings=SceneConfig.for_camera("cam1").focal_settings[:3],
                noise_sigma_px=0.5,
                rng_seed=seed,
            )
            dataset = generate_dataset(config)
            settings = dataset.settings()
            pps = {
                (pose, settings.index(setting)): calibrate_geometric(views).intrinsics.pp
                for (pose, setting), views in dataset.cells.items()
            }
            drift = config.drift.drift_dir
            report = analyze_gravity(pps, drift)
            mags = [report.mean_offset_px[p] for p in (PoseLabel.N, PoseLabel.W, PoseLabel.E)]
            if all(10.0 <= m <= 20.0 for m in mags):
                hits += 1
        assert hits >= 18


class TestCalibrateCells:
    def test_key_order_is_poses_then_focal_labels(self):
        dataset = generate_dataset(crossval_config(gravity_px=15.0, sigma=0.2, seed=2, n_settings=3))
        # cells listed backwards: poses come in order of first appearance,
        # settings by focal label whatever the listing
        shuffled = replace(dataset, cells=dict(reversed(dataset.cells.items())))
        poses = shuffled.poses()
        assert poses == [PoseLabel.E, PoseLabel.W, PoseLabel.N, PoseLabel.DOWN]
        cells = calibrate_cells(shuffled, "geometric", 5.0)
        assert list(cells) == [(pose, index) for pose in poses for index in range(3)]
        settings = shuffled.settings()
        for (pose, index), result in cells.items():
            expected = calibrate_views("geometric", shuffled.cells[(pose, settings[index])], 5.0)
            assert result.intrinsics == expected.intrinsics

    def test_failing_and_missing_cells(self):
        dataset = generate_dataset(crossval_config(gravity_px=15.0, sigma=0.2, seed=2, n_settings=2))
        first, second = dataset.settings()
        cells = dict(dataset.cells)
        cells[(PoseLabel.N, first)] = cells[(PoseLabel.N, first)].take(slice(2))
        cells[(PoseLabel.W, second)] = cells[(PoseLabel.W, second)].take(slice(0))
        del cells[(PoseLabel.E, first)]
        broken = replace(dataset, cells=cells)
        results = calibrate_cells(broken, "algebraic", 5.0)
        assert (PoseLabel.E, 0) not in results
        assert len(results) == 7
        assert isinstance(results[(PoseLabel.N, 0)], InsufficientViews)
        # an empty cell is a failed calibration here, an absent one in crossval
        assert isinstance(results[(PoseLabel.W, 1)], InsufficientViews)
        failed = [key for key, result in results.items() if isinstance(result, CaliblabError)]
        assert failed == [(PoseLabel.N, 0), (PoseLabel.W, 1)]
        # the refined route keeps the same failures and refines the rest
        refined = calibrate_cells(broken, "algebraic-refined", 5.0)
        assert list(refined) == list(results)
        assert [str(refined[key]) for key in failed] == [str(results[key]) for key in failed]
        assert all("lm_iterations" in r.diagnostics for key, r in refined.items() if key not in failed)
        notices = cross_validate(broken, "algebraic").notices
        assert "setting 15.0 mm: cell for pose W is absent" in notices
        assert any(n.startswith("setting 10.0 mm: calibration failed for pose N: ") for n in notices)


class TestAnalyzeDrift:
    TRAJECTORY = "trajectory analysis skipped: needs 3 or more DOWN settings"
    GRAVITY = "gravity analysis skipped: needs 2 or more poses and a drift axis"

    @staticmethod
    def down_line(indices):
        return {(PoseLabel.DOWN, i): Point2(100.0 + 3.0 * i, 200.0 + 4.0 * i) for i in indices}

    def test_both_analyses(self):
        pps = self.down_line([0, 2, 3])
        for i in (0, 2):
            down = pps[(PoseLabel.DOWN, i)]
            pps[(PoseLabel.N, i)] = Point2(down.u + 4.0, down.v - 3.0)  # across the drift axis
        report = analyze_drift(pps, 2)
        assert report.down_indices == (0, 2, 3)
        assert report.trajectory.direction_deg == pytest.approx(math.degrees(math.atan2(4.0, 3.0)))
        assert report.gravity.mean_offset_px[PoseLabel.N] == pytest.approx(5.0)
        assert report.gravity.sideway_ratio == pytest.approx(math.inf)
        assert report.notices == ()

    def test_fewer_than_three_down_settings(self):
        pps = {**self.down_line([0, 1]), (PoseLabel.N, 2): Point2(0.0, 0.0)}
        report = analyze_drift(pps, 2)
        assert report.down_indices == (0, 1)
        assert report.trajectory is None and report.gravity is None
        assert report.notices == (self.TRAJECTORY, self.GRAVITY)

    def test_degenerate_trajectory(self):
        pps = {(PoseLabel.DOWN, i): Point2(100.0, 200.0) for i in range(3)}
        pps[(PoseLabel.N, 0)] = Point2(110.0, 200.0)
        report = analyze_drift(pps, 2)
        assert report.trajectory.degenerate
        assert report.gravity is None
        assert report.notices == (self.GRAVITY,)

    def test_overflowing_trajectory_is_degenerate(self):
        # a dataset file may hold any finite ground truth; a series whose
        # spread overflows has no drift axis, and the gravity analysis is
        # skipped rather than given a NaN direction
        pps = {(PoseLabel.DOWN, i): Point2(u, 0.0) for i, u in enumerate([-1.7e308, 1.7e308, 1.7e308])}
        pps[(PoseLabel.N, 0)] = Point2(0.0, 0.0)
        with np.errstate(over="ignore"):
            report = analyze_drift(pps, 2)
        assert report.trajectory.degenerate
        assert math.isnan(report.trajectory.direction_deg)
        assert report.gravity is None
        assert report.notices == (self.GRAVITY,)

    def test_single_pose(self):
        report = analyze_drift(self.down_line(range(4)), 1)
        assert report.trajectory.monotonicity == pytest.approx(1.0)
        assert report.gravity is None
        assert report.notices == (self.GRAVITY,)

    def test_pose_count_is_the_datasets(self):
        # the tipped poses' cells may all have failed: the gravity analysis
        # still runs, over no offsets
        report = analyze_drift(self.down_line(range(3)), 4)
        assert report.gravity.offsets == {0: {}, 1: {}, 2: {}}
        assert report.notices == ()

    def test_missing_down(self):
        pps = {**self.down_line(range(3)), (PoseLabel.W, 5): Point2(0.0, 0.0)}
        report = analyze_drift(pps, 2)
        assert report.trajectory is not None
        assert report.gravity is None
        assert report.notices == ("gravity analysis skipped: no DOWN principal point for setting index 5",)


class TestCrossValidate:
    def test_exact_transfer_without_gravity(self):
        dataset = generate_dataset(crossval_config(gravity_px=0.0, sigma=0.0, seed=0))
        report = cross_validate(dataset)
        for entry in report.settings:
            assert np.all(np.isfinite(entry.matrix))
            assert entry.matrix.max() < 1e-6

    def test_transfer_penalty_with_gravity(self):
        dataset = generate_dataset(crossval_config(gravity_px=15.0, sigma=0.1, seed=1))
        report = cross_validate(dataset)
        for entry in report.settings:
            m = entry.matrix
            n = len(entry.poses)
            diag = np.diag(m)
            off = m[~np.eye(n, dtype=bool)]
            assert off.mean() > diag.mean()

    def test_penalty_grows_with_gravity(self):
        for seed in range(3):
            excesses = []
            for gravity in (15.0, 30.0):
                dataset = generate_dataset(crossval_config(gravity, sigma=0.1, seed=seed))
                entry = cross_validate(dataset).settings[0]
                m = entry.matrix
                n = len(entry.poses)
                excesses.append(m[~np.eye(n, dtype=bool)].mean() - np.diag(m).mean())
            assert excesses[1] > excesses[0]

    def test_missing_cell_marked_absent(self):
        dataset = generate_dataset(crossval_config(gravity_px=0.0, sigma=0.0, seed=0, n_settings=2))
        cells = dict(dataset.cells)
        del cells[(PoseLabel.E, dataset.settings()[0])]
        truncated = replace(dataset, cells=cells)
        report = cross_validate(truncated)
        entry = report.settings[0]
        e = entry.poses.index(PoseLabel.E)
        assert np.all(~np.isfinite(entry.matrix[e, :]))
        assert np.all(~np.isfinite(entry.matrix[:, e]))
        assert entry.matrix[np.isfinite(entry.matrix)].size == 9
        assert np.all(np.isfinite(report.settings[1].matrix))
        assert report.notices

    def test_deterministic(self):
        config = crossval_config(gravity_px=15.0, sigma=0.2, seed=5)
        a = cross_validate(generate_dataset(config))
        b = cross_validate(generate_dataset(config))
        for ea, eb in zip(a.settings, b.settings):
            np.testing.assert_array_equal(ea.matrix, eb.matrix)


def per_view_crossval(dataset, method="geometric"):
    """Unbatched reference for cross_validate: one refit_view_poses call per
    view, and the first view of a cell whose refit fails voids the entry."""
    poses = dataset.poses()
    matrices, notices = [], []
    for setting in dataset.settings():
        intrinsics = {}
        for pose in poses:
            try:
                intrinsics[pose] = calibrate_views(method, dataset.cells[(pose, setting)], 5.0).intrinsics
            except (KeyError, CaliblabError):
                pass
        matrix = np.full((len(poses), len(poses)), np.nan)
        for a, pose_a in enumerate(poses):
            for b, pose_b in enumerate(poses):
                cell = dataset.cells.get((pose_b, setting))
                if pose_a not in intrinsics or not cell:
                    continue
                refits = [refit_view_poses([intrinsics[pose_a]], cell.take([i])) for i in range(len(cell))]
                err = next((r.errors[0] for r in refits if r.errors[0] is not None), None)
                if err is not None:
                    notices.append(
                        f"setting {setting.label_mm} mm: pose refit {pose_a.value}->{pose_b.value} failed: {err}"
                    )
                    continue
                matrix[a, b] = sum(float(r.rmse[0]) for r in refits) / len(refits)
        matrices.append(matrix)
    return matrices, notices


class TestBatchedCrossval:
    """cross_validate refits every view under one pose's intrinsics as one
    stack; its matrices and notices must be what per-view refits give."""

    @staticmethod
    def assert_matches_reference(dataset):
        report = cross_validate(dataset)
        matrices, notices = per_view_crossval(dataset)
        for entry, expected in zip(report.settings, matrices, strict=True):
            np.testing.assert_array_equal(np.isnan(entry.matrix), np.isnan(expected))
            np.testing.assert_allclose(entry.matrix, expected, rtol=0.0, atol=1e-12)
        assert [n for n in report.notices if "pose refit" in n] == notices
        return report

    @staticmethod
    def dataset(n_settings=1):
        return generate_dataset(crossval_config(gravity_px=15.0, sigma=0.3, seed=4, n_settings=n_settings))

    def test_ragged_corner_counts(self):
        data = json.loads(dumps_dataset(self.dataset(n_settings=2)))
        for c, cell in enumerate(data["cells"]):
            for v, view in enumerate(cell["views"]):
                if (c + v) % 3 == 1:
                    view["corners"] = view["corners"][: 18 + 9 * ((c + v) % 2)]
        dataset = loads_dataset(json.dumps(data))
        counts = {n for cell in dataset.cells.values() for n in cell.count.tolist()}
        assert counts == {18, 27, 54}
        report = self.assert_matches_reference(dataset)
        assert all(np.all(np.isfinite(entry.matrix)) for entry in report.settings)

    def test_leaves_numpy_ma_unloaded(self):
        # grouping views by corner count and taking medians need no masked
        # arrays; some numpy versions load numpy.ma with numpy itself
        src = Path(caliblab.__file__).resolve().parents[1]
        script = (
            "import sys, caliblab; eager = 'numpy.ma' in sys.modules\n"
            "from caliblab import analysis, synth\n"
            "config = synth.SceneConfig(focal_settings=(synth.FocalSetting(12.0, 3000.0),), noise_sigma_px=0.3)\n"
            "analysis.cross_validate(synth.generate_dataset(config))\n"
            "print(eager or 'numpy.ma' not in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_permuted_views(self, rng):
        dataset = self.dataset()
        cells = {key: cell.take(rng.permutation(len(cell))) for key, cell in dataset.cells.items()}
        self.assert_matches_reference(replace(dataset, cells=cells))

    def test_failing_cell(self):
        dataset = self.dataset()
        key = (PoseLabel.N, dataset.settings()[0])
        cell = dataset.cells[key]
        # a view whose board plane passes through the camera center under
        # any intrinsics: its pose decomposition fails
        h = scene_homography(3000.0, (3024.0, 2012.0), oracle_rot_x(45.0), [0.0, 800.0, 1e-9])
        through_center = Cell(
            ("through-center",), cell.board[2:3], cell.image[2:3], cell.count[2:3],
            canonical_homography(h)[None],
        )
        cell = Cell.concat([cell.take(slice(2)), through_center, cell.take(slice(2, None))])
        report = self.assert_matches_reference(replace(dataset, cells={**dataset.cells, key: cell}))
        entry = report.settings[0]
        n = entry.poses.index(PoseLabel.N)
        assert np.all(np.isnan(entry.matrix[:, n]))
        assert np.isfinite(np.delete(entry.matrix, n, axis=1)).all()
        assert sum("pose refit" in notice and "camera center" in notice for notice in report.notices) == 4

    def test_failed_refit_voids_entry_without_traceback(self, monkeypatch):
        # a refit whose final pose lies behind the camera used to escape as
        # a plain ValueError; now it is a BehindCamera notice naming the view
        dataset = self.dataset()
        kernel = calibrate._levenberg_marquardt
        # the setting's views are stacked once per pose's intrinsics
        n_views = sum(len(views) for views in dataset.cells.values())

        def broken(params0, *callbacks, **kwargs):
            params, *rest = kernel(params0, *callbacks, **kwargs)
            params = params.copy()
            params[1::n_views, 9:] *= -1.0  # t of the second view of the first pose's cell
            return (params, *rest)

        monkeypatch.setattr(calibrate, "_levenberg_marquardt", broken)
        report = cross_validate(dataset)
        entry = report.settings[0]
        assert np.all(np.isnan(entry.matrix[:, 0]))
        assert np.isfinite(entry.matrix[:, 1:]).all()
        view_id = dataset.cells[(entry.poses[0], dataset.settings()[0])].ids[1]
        refit_notices = [n for n in report.notices if "pose refit" in n]
        assert len(refit_notices) == 4
        assert all(f"failed: view {view_id}: " in n for n in refit_notices)


@pytest.fixture(scope="module")
def cam1_dataset():
    """The default cam1 dataset: 7 focal settings, 4 poses, 8 views each."""
    return generate_dataset(replace(SceneConfig.for_camera("cam1"), noise_sigma_px=0.5, rng_seed=256))


class TestCrossvalStacks:
    """cross_validate refits each setting's views under every calibrated
    pose's intrinsics as one stack: one LM call per setting, with a live
    memory peak small next to the process's."""

    def test_one_lm_call_per_setting(self, cam1_dataset, monkeypatch):
        kernel = calibrate._levenberg_marquardt
        stacks = []

        def counting(params0, *callbacks, **kwargs):
            stacks.append(len(params0))
            return kernel(params0, *callbacks, **kwargs)

        monkeypatch.setattr(calibrate, "_levenberg_marquardt", counting)
        report = cross_validate(cam1_dataset, "geometric")
        assert np.isfinite([entry.matrix for entry in report.settings]).all()
        # 4 poses' intrinsics x 32 views of the setting, 54 corners each
        assert stacks == [4 * 32] * 7

    def test_memory_peak(self, cam1_dataset):
        cross_validate(cam1_dataset, "geometric")
        tracemalloc.start()
        try:
            cross_validate(cam1_dataset, "geometric")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one setting's stack peaks near 3 MB; stacking two settings, or the
        # whole dataset, would not fit
        assert peak < 4e6


def test_refit_and_refined_rotations_stay_orthonormal(cam1_dataset):
    # LM steps a rotation as R <- rodrigues(delta) @ R, so only rounding
    # moves it off SO(3): the largest |R^T R - I| or |det R - 1| over these
    # 28 refined cells and their 224 refits measured 2.0e-15
    settings = cam1_dataset.settings()
    for (pose, index), result in calibrate_cells(cam1_dataset, "algebraic-refined", 5.0).items():
        cell = cam1_dataset.cells[(pose, settings[index])]
        for rot in (result.rot, refit_view_poses([result.intrinsics] * len(cell), cell).rot):
            assert np.abs(np.swapaxes(rot, -1, -2) @ rot - np.eye(3)).max() < 1e-12
            assert np.abs(np.linalg.det(rot) - 1.0).max() < 1e-12


def counting_kernel(monkeypatch) -> list[int]:
    """Record the stack size of every LM kernel call."""
    kernel = calibrate._levenberg_marquardt
    stacks = []

    def counting(params0, *callbacks, **kwargs):
        stacks.append(len(params0))
        return kernel(params0, *callbacks, **kwargs)

    monkeypatch.setattr(calibrate, "_levenberg_marquardt", counting)
    return stacks


def assert_same_refinement(a, b):
    assert a.intrinsics == b.intrinsics and a.rmse == b.rmse
    np.testing.assert_array_equal(a.rot, b.rot)
    np.testing.assert_array_equal(a.t, b.t)
    assert a.diagnostics == b.diagnostics
    assert (a.views.ids, a.flags) == (b.views.ids, b.flags)


def dense_damped_steps(hess, grad, lam):
    """Steps of dense damped systems (hess + lam diag(d)) step = -grad, for
    hess (B, P, P), grad (B, P) and lam (B,), with d the diagonal of hess
    floored at 1e-12, and a mask of the solved problems (all of them)."""
    damping = lam[:, None] * np.maximum(np.diagonal(hess, axis1=-2, axis2=-1), 1e-12)
    systems = hess + damping[..., None] * np.eye(hess.shape[-1])
    return np.linalg.solve(systems, -grad[..., None])[..., 0], np.ones(len(hess), dtype=bool)


class TestRefineStacks:
    """refine solves every cell of the same layout as one LM stack; each
    cell gets, bit for bit, what refining it alone gives."""

    @staticmethod
    def algebraic_starts(dataset, count):
        return [calibrate_algebraic(cell) for cell in list(dataset.cells.values())[:count]]

    def test_stack_equals_stacks_of_one(self, cam1_dataset):
        cells = calibrate_cells(cam1_dataset, "algebraic-refined", 5.0)
        settings = cam1_dataset.settings()
        assert len(cells) == 28
        for (pose, index), result in cells.items():
            alone = calibrate_views("algebraic-refined", cam1_dataset.cells[(pose, settings[index])], 5.0)
            assert_same_refinement(result, alone)

    def test_matches_dense_reference(self, cam1_dataset, monkeypatch):
        # the Schur step against np.linalg.solve of the dense damped system
        # built from each cell's dense Jacobian, on all 28 cells at lam from
        # 1e-6 to 1e3: they agree to 1e-10 of the step's largest entry
        starts = self.algebraic_starts(cam1_dataset, 28)
        stacks = [joint_stack(start) for start in starts]
        pts, image, params = (np.concatenate([stack[k] for stack in stacks]) for k in (0, 1, 3))
        mask = stacks[0][2]
        cam_map, cam_offset = shared_camera(len(starts))
        residuals, normal_equations, _ = calibrate._views_problem(pts, image, mask, cam_map, cam_offset)
        rows = np.arange(len(starts))
        res = residuals(params, rows)
        blocks, grads = normal_equations(params, rows, res)
        for lam in (1e-6, 1e-3, 1.0, 1e3):
            steps, solved = calibrate._damped_steps(blocks, grads, np.full(len(starts), lam))
            assert solved.all()
            for b in rows:
                jac = dense_joint_jacobian(params[b], pts[b], mask, cam_map, cam_offset[b])
                (dense,), _ = dense_damped_steps((jac.T @ jac)[None], (jac.T @ res[b])[None], np.array([lam]))
                assert np.abs(steps[b] - dense).max() <= 1e-10 * np.abs(dense).max()
        # the same kernel on the dense J^T J and J^T r with the dense damped
        # solve: summation order differs, so f and pp agree to 1e-8
        # relative, iterations exactly
        results, _ = refine(starts[::3])
        monkeypatch.setattr(calibrate, "_damped_steps", dense_damped_steps)
        for start, result in zip(starts[::3], results):
            pts, image, mask, params0 = joint_stack(start)
            residuals, _, retract = calibrate._views_problem(pts, image, mask, cam_map, cam_offset[:1])

            def dense(params, rows, res):
                jac = dense_joint_jacobian(params[0], pts[0], mask, cam_map, cam_offset[0])
                return (jac.T @ jac)[None], (jac.T @ res[0])[None]

            params, _, converged, iters = calibrate._levenberg_marquardt(params0, residuals, dense, retract)
            got = [result.intrinsics.f, result.intrinsics.pp.u, result.intrinsics.pp.v]
            np.testing.assert_allclose(got, params[0, :3], rtol=1e-8, atol=0.0)
            assert result.diagnostics["lm_iterations"] == iters[0]
            assert result.diagnostics["converged"] == converged[0]

    def test_one_lm_call_for_all_cells(self, cam1_dataset, monkeypatch):
        stacks = counting_kernel(monkeypatch)
        calibrate_cells(cam1_dataset, "algebraic-refined", 5.0)
        assert stacks == [28]

    def test_layouts_share_one_call(self, cam1_dataset, monkeypatch):
        # 8-view cells, 4-view cells and a cell with a 27-corner view each
        # form their own LM stack inside one refine call
        cells = list(cam1_dataset.cells.values())
        short = short_view(cells[2], 0)
        chosen = [
            cells[0],
            cells[1].take(slice(4)),
            Cell.concat([short, cells[2].take(slice(1, None))]),
            cells[3],
            cells[4].take(slice(4)),
        ]
        starts = [calibrate_algebraic(c) for c in chosen]
        stacks = counting_kernel(monkeypatch)
        results, errors = refine(starts)
        assert errors == [None] * len(chosen)
        assert sorted(stacks) == [1, 2, 2]
        for result, start in zip(results, starts):
            assert_same_refinement(result, only(refine([start])))

    def test_failure_isolation(self, cam1_dataset, monkeypatch):
        starts = self.algebraic_starts(cam1_dataset, 6)
        reference, _ = refine(starts)
        # cell 0 keeps one accepted view; the kernel puts view 1 of cell 3
        # (problem 2 of the stack, as cell 0 never enters it) behind the camera
        start = starts[0]
        starts[0] = replace(start, views=start.views.take(slice(1)), rot=start.rot[:1], t=start.t[:1])
        kernel = calibrate._levenberg_marquardt

        def broken(params0, *callbacks, **kwargs):
            params, *rest = kernel(params0, *callbacks, **kwargs)
            params = params.copy()
            params[2, 3 + 12 + 9 : 3 + 12 + 12] *= -1.0  # t of view 1
            return (params, *rest)

        monkeypatch.setattr(calibrate, "_levenberg_marquardt", broken)
        results, errors = refine(starts)
        assert results[0] is None and results[3] is None
        assert isinstance(errors[0], InsufficientViews)
        assert str(errors[0]) == "refinement needs at least 2 accepted views"
        assert isinstance(errors[3], BehindCamera)
        view_id = starts[3].views.ids[1]
        assert str(errors[3]) == f"view {view_id}: refined pose is not finite or lies behind the camera"
        for i in (1, 2, 4, 5):
            assert errors[i] is None
            assert_same_refinement(results[i], reference[i])

    def test_call_diagnostics(self, cam1_dataset, monkeypatch):
        # the benchmark's tracer reads a refine call's LM summary from
        # Refinement.diagnostics: the mean iterations over the refined cells
        # and whether all of them converged; a failed cell does not count
        starts = self.algebraic_starts(cam1_dataset, 8)
        start = starts[0]
        starts[0] = replace(start, views=start.views.take(slice(1)), rot=start.rot[:1], t=start.t[:1])
        refinement = refine(starts)
        done = [r.diagnostics for r in refinement.results[1:]]
        assert refinement.results[0] is None and all(d["converged"] for d in done)
        iterations = [d["lm_iterations"] for d in done]
        assert len(set(iterations)) > 1
        assert refinement.diagnostics == {"lm_iterations": sum(iterations) / 7, "converged": True}
        monkeypatch.setattr(calibrate, "LM_MAX_ITERS", 2)
        assert refine(starts[1:]).diagnostics == {"lm_iterations": 2, "converged": False}
        assert refine([starts[0]]).diagnostics == {"lm_iterations": 0, "converged": True}

    def test_memory_peak(self, cam1_dataset):
        calibrate_cells(cam1_dataset, "algebraic-refined", 5.0)
        tracemalloc.start()
        try:
            calibrate_cells(cam1_dataset, "algebraic-refined", 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 28-cell stack peaks near 5.0 MB (per-view Jacobian rows of
        # 1.7 MB and (28, 8, 9, 9) per-view normal equations, which the
        # Schur step solves without assembling a (28, 51, 51) system); a
        # dense (864 x 51) Jacobian per cell would need 9.9 MB for the rows alone
        assert peak < 8e6
