"""Tests for the geometric and algebraic calibrators and LM refinement."""

import json
import math

import numpy as np
import pytest

from caliblab import calibrate
from caliblab.calibrate import (
    CalibrationResult,
    CalibrationView,
    Extrinsics,
    Intrinsics,
    _board_points,
    _jacobian,
    _levenberg_marquardt,
    _pack,
    _pose_problem,
    _residuals,
    calibrate_algebraic,
    calibrate_geometric,
    extrinsics_from_homography,
    focal_from_homography,
    refine,
    refit_view_pose,
    refit_view_poses,
    view_rmse,
    views_from_points,
)
from caliblab.dataset_io import dumps_dataset, dumps_json, loads_dataset
from caliblab.errors import (
    AmbiguousDirection,
    BehindCamera,
    ConfigError,
    DegenerateConfiguration,
    DegenerateSystem,
    DegenerateView,
    InsufficientViews,
)
from caliblab.geometry import DLT_RANK_RTOL, Homography, Point2
from caliblab.principal_line import DIRECTION_EPS, PERSPECTIVE_EPS
from caliblab.synth import SceneConfig, generate_dataset
from caliblab.rotations import rvec_from_rotation

from conftest import (
    bias_half_board,
    grid_board,
    oracle_rot_x,
    oracle_rot_z,
    pinhole_project,
    scene_homography,
    tilted_scene_views,
)


def tilt45_homography(f=1000.0, pp=(500.0, 400.0)):
    return Homography(scene_homography(f, pp, oracle_rot_x(45.0), [0.0, 0.0, 1000.0]))


class TestFocalFromHomography:
    def test_pure_x_tilt_single_constraint(self):
        # h7 = 0 kills the orthogonality constraint; the equal-norm one
        # yields f^2 = (1e6 - (1000 cos 45)^2) / sin^2 45 = 1e6 exactly.
        estimates = focal_from_homography(tilt45_homography(), Point2(500.0, 400.0))
        assert len(estimates) == 1
        assert estimates[0] == pytest.approx(1000.0, rel=1e-9)

    def test_fronto_parallel_empty(self):
        h = Homography(scene_homography(1000.0, (500.0, 400.0), np.eye(3), [0.0, 0.0, 1000.0]))
        assert focal_from_homography(h, Point2(500.0, 400.0)) == []

    def test_general_pose_both_constraints(self):
        # in-plane pattern rotation after the tilt makes both rotation
        # columns dip out of the image plane, so both closed forms apply
        rot = oracle_rot_x(45.0) @ oracle_rot_z(30.0)
        h = Homography(scene_homography(3000.0, (2000.0, 1500.0), rot, [0.0, 0.0, 900.0]))
        estimates = focal_from_homography(h, Point2(2000.0, 1500.0))
        assert len(estimates) == 2
        for f in estimates:
            assert f == pytest.approx(3000.0, abs=1e-6)


class TestExtrinsicsFromHomography:
    def test_recovers_exact_pose(self):
        rot = oracle_rot_z(70.0) @ oracle_rot_x(40.0)
        t = np.array([30.0, -50.0, 1200.0])
        h = Homography(scene_homography(2500.0, (1000.0, 800.0), rot, t))
        extr = extrinsics_from_homography(h, Intrinsics(2500.0, Point2(1000.0, 800.0)))
        np.testing.assert_allclose(extr.rot, rot, atol=1e-8)
        np.testing.assert_allclose(extr.t, t, rtol=1e-8)

    def test_sign_invariance(self):
        rot = oracle_rot_x(45.0)
        m = scene_homography(1000.0, (500.0, 400.0), rot, [0.0, 0.0, 1000.0])
        intr = Intrinsics(1000.0, Point2(500.0, 400.0))
        a = extrinsics_from_homography(Homography(m), intr)
        b = extrinsics_from_homography(Homography(-m), intr)
        np.testing.assert_array_equal(a.rot, b.rot)
        np.testing.assert_array_equal(a.t, b.t)

    def test_noisy_views_still_give_exact_rotations(self, board, rng):
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        for _ in range(20):
            views, _ = tilted_scene_views(rolls=[float(rng.uniform(0, 360))], sigma=0.5, rng=rng)
            extr = extrinsics_from_homography(views[0].homography, intr)
            assert np.abs(extr.rot.T @ extr.rot - np.eye(3)).max() <= 1e-9
            assert np.linalg.det(extr.rot) == pytest.approx(1.0, abs=1e-9)


class TestCalibrateGeometric:
    def test_recovers_ground_truth_noise_free(self):
        views, _ = tilted_scene_views()
        result = calibrate_geometric(views)
        assert math.hypot(result.intrinsics.pp.u - 3024.0, result.intrinsics.pp.v - 2012.0) < 0.01
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-4
        assert result.rmse < 1e-6
        assert result.flags == ()
        assert result.pp_estimate is not None
        assert min(result.focal_samples) <= result.intrinsics.f <= max(result.focal_samples)

    def test_flags_biased_view(self, board):
        views, _ = tilted_scene_views()
        bad = views[3]
        uv = bias_half_board(bad.board_xy, bad.image_uv)
        views[3] = CalibrationView.from_points(bad.id, np.array(bad.board_xy), uv)
        result = calibrate_geometric(views)
        assert "v3" in result.flags
        assert math.hypot(result.intrinsics.pp.u - 3024.0, result.intrinsics.pp.v - 2012.0) < 0.1
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-3

    def test_one_view_insufficient(self):
        views, _ = tilted_scene_views(rolls=[0.0])
        with pytest.raises(InsufficientViews):
            calibrate_geometric(views)

    def test_two_views_suffice(self):
        views, _ = tilted_scene_views(rolls=[0.0, 45.0])
        result = calibrate_geometric(views)
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-6

    def test_rotations_stay_orthonormal_under_noise(self, rng):
        views, _ = tilted_scene_views(sigma=1.0, rng=rng)
        result = calibrate_geometric(views)
        for extr in result.per_view:
            assert np.abs(extr.rot.T @ extr.rot - np.eye(3)).max() <= 1e-9

    def test_median_aggregation_robust(self):
        views, _ = tilted_scene_views()
        result = calibrate_geometric(views)
        pp = result.pp_estimate.pp
        per_view = [focal_from_homography(v.homography, pp) for v in views]
        samples = [f for fs in per_view for f in fs]
        corrupted = [f * 2.0 for f in per_view[0]] + [f for fs in per_view[1:] for f in fs]
        assert abs(np.median(corrupted) - np.median(samples)) / np.median(samples) < 0.01


class TestCalibrateAlgebraic:
    def test_recovers_ground_truth_noise_free(self):
        views, _ = tilted_scene_views()
        result = calibrate_algebraic(views)
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-6
        assert abs(result.intrinsics.pp.u - 3024.0) / 3024.0 < 1e-6
        assert abs(result.intrinsics.pp.v - 2012.0) / 2012.0 < 1e-6
        assert result.pp_estimate is None
        assert abs(result.diagnostics["aspect_ratio"] - 1.0) < 1e-6

    def test_identical_rotations_degenerate(self, board):
        rot = oracle_rot_x(45.0)
        center = board.mean(axis=0)
        views = []
        for k, shift in enumerate([(0.0, 0.0), (40.0, 10.0), (-30.0, 25.0)]):
            t = np.array([shift[0], shift[1], 800.0]) - rot @ np.array([center[0], center[1], 0.0])
            uv = pinhole_project(3000.0, (3024.0, 2012.0), rot, t, board)
            views.append(CalibrationView.from_points(f"v{k}", board, uv))
        with pytest.raises(DegenerateSystem):
            calibrate_algebraic(views)

    def test_two_views_insufficient(self):
        views, _ = tilted_scene_views(rolls=[0.0, 45.0])
        with pytest.raises(InsufficientViews):
            calibrate_algebraic(views)

    def test_insufficient_views_is_a_degenerate_system(self):
        # below three views the conic system is underdetermined, so the
        # error doubles as a DegenerateSystem
        views, _ = tilted_scene_views(rolls=[0.0, 45.0])
        with pytest.raises(DegenerateSystem):
            calibrate_algebraic(views)


class TestRefine:
    def test_converges_from_perturbed_focal(self):
        views, _ = tilted_scene_views()
        result = calibrate_geometric(views)
        start = CalibrationResult(
            method=result.method,
            intrinsics=Intrinsics(result.intrinsics.f * 1.05, result.intrinsics.pp),
            per_view=result.per_view,
            accepted_ids=result.accepted_ids,
            pp_estimate=result.pp_estimate,
            focal_samples=result.focal_samples,
            rmse=view_rmse(
                Intrinsics(result.intrinsics.f * 1.05, result.intrinsics.pp),
                result.per_view[0],
                views[0],
            ),
            flags=result.flags,
        )
        refined = refine(start, views)
        assert abs(refined.intrinsics.f - 3000.0) / 3000.0 < 1e-8
        assert refined.method == "refined"
        assert refined.diagnostics["converged"]

    def test_fixed_point_at_optimum(self):
        views, _ = tilted_scene_views()
        result = calibrate_geometric(views)
        refined = refine(result, views)
        n = sum(len(v.board_xy) for v in views)
        cost_before = result.rmse**2 * n
        cost_after = refined.rmse**2 * n
        assert cost_before - cost_after < 1e-15
        assert abs(refined.intrinsics.f - result.intrinsics.f) < 1e-9

    def test_noisy_refinement_improves_rmse(self, rng):
        views, _ = tilted_scene_views(sigma=0.5, rng=rng)
        result = calibrate_geometric(views)
        refined = refine(result, views)
        assert refined.rmse <= result.rmse + 1e-12

    def test_jacobian_matches_central_differences(self, rng):
        # relative to the column scale: each column is one parameter's
        # sensitivity, so entries within it share units
        for _ in range(10):
            views, _ = tilted_scene_views(
                f=float(rng.uniform(1500, 6000)),
                pp=(float(rng.uniform(1000, 4000)), float(rng.uniform(800, 3000))),
                tilt_deg=float(rng.uniform(25, 65)),
                rolls=[float(r) for r in rng.uniform(0, 360, 3)],
                sigma=0.5,
                rng=rng,
            )
            result = calibrate_geometric(views) if len(views) >= 2 else None
            by_id = {v.id: v for v in views}
            accepted = [by_id[i] for i in result.accepted_ids]
            params = _pack(result.intrinsics.f, result.intrinsics.pp, result.per_view, True)
            jac = _jacobian(params, accepted, True, result.intrinsics)
            fd = np.empty_like(jac)
            for j in range(len(params)):
                h = 1e-6 * max(1.0, abs(params[j]))
                dp = np.zeros_like(params)
                dp[j] = h
                fd[:, j] = (
                    _residuals(params + dp, accepted, True, result.intrinsics)
                    - _residuals(params - dp, accepted, True, result.intrinsics)
                ) / (2 * h)
            col_scale = np.abs(fd).max(axis=0)
            rel = np.abs(jac - fd).max(axis=0) / col_scale
            assert rel.max() < 1e-4

    def test_pose_only_refit(self):
        views, truth = tilted_scene_views()
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        extr, rmse = refit_view_pose(intr, views[0])
        np.testing.assert_allclose(extr.rot, truth[0][0], atol=1e-7)
        assert rmse < 1e-7


class TestBatchedPoseRefit:
    def test_pose_jacobian_matches_central_differences(self, rng):
        # one stacked pose-only problem per view; view 0 sits at rvec = 0
        # exactly, so the small-angle limit runs inside the batch
        views, truth = tilted_scene_views(rolls=[0.0, 45.0, 200.0], sigma=0.5, rng=rng)
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        pts = _board_points(np.array([v.board_xy for v in views]))
        image = np.array([v.image_uv for v in views])
        params = np.array([np.concatenate([rng.normal(0.0, 0.5, 3), t]) for _, t in truth])
        params[0, :3] = 0.0
        residuals, jacobian = _pose_problem(intr, pts, image)
        rows = np.arange(len(views))
        jac = jacobian(params, rows)
        fd = np.empty_like(jac)
        for j in range(6):
            dp = np.zeros_like(params)
            dp[:, j] = 1e-6 * np.maximum(1.0, np.abs(params[:, j]))
            fd[..., j] = (residuals(params + dp, rows) - residuals(params - dp, rows)) / (2 * dp[:, None, j])
        col_scale = np.abs(fd).max(axis=1)
        assert (np.abs(jac - fd).max(axis=1) / col_scale).max() < 1e-4
        # a problem's Jacobian does not depend on the batch around it
        np.testing.assert_array_equal(jacobian(params[:1], rows[:1])[0], jac[0])

    def test_kernel_keeps_per_problem_schedule(self, rng):
        # starts at different distances from the optimum take different
        # numbers of iterations; each problem must stop and damp as if solved
        # alone, so iteration counts and results match one-problem calls
        views, truth = tilted_scene_views(sigma=0.5, rng=rng)
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        pts = _board_points(np.array([v.board_xy for v in views]))
        image = np.array([v.image_uv for v in views])
        params0 = np.array([np.concatenate([rvec_from_rotation(rot), t]) for rot, t in truth])
        params0 += rng.normal(0.0, 1.0, params0.shape) * np.geomspace(1e-6, 0.3, len(views))[:, None]
        residuals, jacobian = _pose_problem(intr, pts, image)
        stacked = _levenberg_marquardt(params0, residuals, jacobian)
        assert len(set(stacked[3].tolist())) > 1
        for i in range(len(views)):
            alone = _levenberg_marquardt(
                params0[i : i + 1],
                *_pose_problem(intr, pts[i : i + 1], image[i : i + 1]),
            )
            np.testing.assert_allclose(stacked[0][i], alone[0][0], rtol=1e-12, atol=0.0)
            assert abs(stacked[1][i] - alone[1][0]) <= 1e-12 * alone[1][0]
            assert (stacked[2][i], stacked[3][i]) == (alone[2][0], alone[3][0])

    def test_batch_equals_single_refits(self, rng):
        views, _ = tilted_scene_views(sigma=0.5, rng=rng)
        # a view with fewer corners is solved in a stack of its own
        short = CalibrationView.from_points("short", views[3].board_xy[:27], views[3].image_uv[:27])
        views = [views[5], short, *views[:3]]
        intr = Intrinsics(3010.0, Point2(3030.0, 2000.0))
        refits = refit_view_poses(intr, views)
        assert refits.errors == (None,) * len(views)
        for i, view in enumerate(views):
            extr, rmse = refit_view_pose(intr, view)
            np.testing.assert_allclose(refits.rot[i], extr.rot, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(refits.t[i], extr.t, rtol=0.0, atol=1e-9)
            assert abs(refits.rmse[i] - rmse) <= 1e-12

    @staticmethod
    def break_kernel(monkeypatch, behind, non_finite):
        """Make the LM kernel return the problems `behind` with the board
        behind the camera and the problems `non_finite` with a NaN pose."""
        kernel = calibrate._levenberg_marquardt

        def broken(params0, *callbacks, **kwargs):
            params, *rest = kernel(params0, *callbacks, **kwargs)
            params = params.copy()
            params[behind, 3:] *= -1.0
            params[non_finite, 0] = np.nan
            return (params, *rest)

        monkeypatch.setattr(calibrate, "_levenberg_marquardt", broken)

    def test_failed_refit_names_its_view(self, monkeypatch):
        views, _ = tilted_scene_views(rolls=[0.0, 45.0, 90.0])
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        self.break_kernel(monkeypatch, behind=[1], non_finite=[2])
        refits = refit_view_poses(intr, views)
        assert refits.errors[0] is None and np.isfinite(refits.rmse[0])
        for i in (1, 2):
            assert isinstance(refits.errors[i], BehindCamera)
            assert str(refits.errors[i]).startswith(f"view {views[i].id}: ")
            assert np.isnan(refits.rmse[i]) and np.all(np.isnan(refits.t[i]))

    def test_single_failed_refit_raises_behind_camera(self, monkeypatch):
        views, _ = tilted_scene_views(rolls=[45.0])
        self.break_kernel(monkeypatch, behind=[0], non_finite=[])
        with pytest.raises(BehindCamera, match="^view v0: "):
            refit_view_pose(Intrinsics(3000.0, Point2(3024.0, 2012.0)), views[0])


class TestExtrinsicEdgeCases:
    def test_behind_camera(self):
        # board origin in the camera plane: recovered t_z collapses to 0
        rot = oracle_rot_x(45.0)
        h = Homography(scene_homography(1000.0, (500.0, 400.0), rot, [0.0, 800.0, 1e-9]))
        from caliblab.errors import BehindCamera

        with pytest.raises(BehindCamera):
            extrinsics_from_homography(h, Intrinsics(1000.0, Point2(500.0, 400.0)))

    def test_empty_view_rejected_by_metric(self):
        from caliblab.errors import EmptyView

        hollow = CalibrationView(
            id="empty",
            homography=Homography(np.eye(3)),
            principal_line=None,
            board_xy=np.zeros((0, 2)),
            image_uv=np.zeros((0, 2)),
        )
        intr = Intrinsics(1000.0, Point2(0.0, 0.0))
        extr = Extrinsics(np.eye(3), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(EmptyView):
            view_rmse(intr, extr, hollow)


class TestViewRmse:
    def test_zero_for_ground_truth(self):
        views, truth = tilted_scene_views()
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        for view, (rot, t) in zip(views, truth):
            assert view_rmse(intr, Extrinsics(rot, t), view) < 1e-9

    def test_positive_after_pp_shift_with_frozen_refit(self):
        views, _ = tilted_scene_views()
        shifted = Intrinsics(3000.0, Point2(3024.0 + 50.0, 2012.0))
        _, rmse = refit_view_pose(shifted, views[0])
        assert rmse > 0.05


def reference_homography(board, image):
    """One view's normalized DLT, as a loop over views computes it: the
    raw matrix handed to Homography, or the error."""

    def normalize(pts):
        centroid = pts.mean(axis=0)
        d = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
        if d <= 1e-12:
            raise DegenerateConfiguration("all points coincide")
        s = math.sqrt(2.0) / d
        t = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
        return (pts - centroid) * s, t

    n = len(board)
    bn, tb = normalize(board)
    qn, tq = normalize(image)
    x, y = bn[:, 0], bn[:, 1]
    u, v = qn[:, 0], qn[:, 1]
    zeros, ones = np.zeros(n), np.ones(n)
    design = np.empty((2 * n, 9))
    design[0::2] = np.column_stack([-x, -y, -ones, zeros, zeros, zeros, u * x, u * y, u])
    design[1::2] = np.column_stack([zeros, zeros, zeros, -x, -y, -ones, v * x, v * y, v])
    _, sing, vt = np.linalg.svd(design)
    if sing[7] <= DLT_RANK_RTOL * sing[0]:
        raise DegenerateConfiguration("design matrix is rank deficient (collinear or duplicated board points)")
    return np.linalg.inv(tq) @ vt[-1].reshape(3, 3) @ tb


def reference_line(homography):
    """One view's principal line as (a, b, c, anchor u, anchor v, direction
    u, direction v), or the error, as a loop over views computes it."""
    h = homography.h
    h7, h8 = h[2, 0], h[2, 1]
    if h7 * h7 + h8 * h8 <= PERSPECTIVE_EPS * float(np.sum(h * h)):
        raise DegenerateView("board is parallel to the image plane (h7 = h8 = 0)")
    w = np.cross(h[:, 0], h[:, 1])
    if w[0] * w[0] + w[1] * w[1] <= DIRECTION_EPS * float(h[:, 0] @ h[:, 0]) * float(h[:, 1] @ h[:, 1]):
        raise AmbiguousDirection("in-image component of the board normal vanishes")
    vd = h @ np.array([h7, h8, 0.0])
    coeffs = np.cross(vd, np.array([w[0], w[1], 0.0]))
    norm = math.hypot(coeffs[0], coeffs[1])
    a, b, c = coeffs[0] / norm, coeffs[1] / norm, coeffs[2] / norm
    if a < 0.0 or (a == 0.0 and b < 0.0):
        a, b, c = -a, -b, -c
    dnorm = math.hypot(w[0], w[1])
    return (a, b, c, vd[0] / vd[2], vd[1] / vd[2], w[0] / dnorm, w[1] / dnorm)


def assert_matches_reference(view):
    expected = Homography(reference_homography(view.board_xy, view.image_uv))
    assert view.homography.h.tobytes() == expected.h.tobytes()
    try:
        line = reference_line(expected)
    except (DegenerateView, AmbiguousDirection):
        assert view.principal_line is None
        return
    pl = view.principal_line
    got = (pl.line.a, pl.line.b, pl.line.c, pl.anchor.u, pl.anchor.v, *pl.direction)
    assert np.array(got).tobytes() == np.array(line).tobytes()
    assert pl.source_view == view.id


def fronto_parallel_uv(board):
    """Image of a board parallel to the image plane, rotated by 90 degrees
    and scaled by 4: exact in 9 digits, no perspective."""
    return np.column_stack([3000.0 - 4.0 * board[:, 1], 500.0 + 4.0 * board[:, 0]])


class TestStackedViewBuild:
    def test_ragged_json_cell_matches_per_view_reference(self):
        dataset = generate_dataset(SceneConfig.for_camera("cam1", rng_seed=1792, noise_sigma_px=0.5))
        node = json.loads(dumps_dataset(dataset))
        cell = node["cells"][5]
        views = cell["views"]
        keep = {0: range(54), 1: [0, 8, 45, 53], 2: range(0, 54, 2), 3: range(20), 4: range(54), 5: [0, 8, 45, 53]}
        for index, rows in keep.items():
            views[index]["corners"] = [views[index]["corners"][r] for r in rows]
        for corner in views[4]["corners"]:
            corner["u_px"], corner["v_px"] = fronto_parallel_uv(np.array([[corner["x_mm"], corner["y_mm"]]]))[0]
        loaded = loads_dataset(dumps_json(node))
        (built,) = [
            views
            for (pose, setting), views in loaded.cells.items()
            if pose.value == cell["pose"] and setting.label_mm == cell["focal_label_mm"]
        ]
        assert [len(v.board_xy) for v in built] == [54, 4, 27, 20, 54, 4, 54, 54]
        assert built[4].principal_line is None
        for view in built:
            assert_matches_reference(view)
        for views in loaded.cells.values():
            for view in views:
                assert_matches_reference(view)

    def test_stack_equals_one_view_calls(self, rng):
        board = grid_board()
        stack_views, _ = tilted_scene_views(rolls=[0.0, 45.0, 90.0, 200.0], sigma=0.5, rng=rng)
        ids = ["a", "b", "flat", "c", "d"]
        boards = [board, board[[0, 8, 45, 53]], board, board[:30], board]
        images = [
            stack_views[0].image_uv,
            stack_views[1].image_uv[[0, 8, 45, 53]],
            fronto_parallel_uv(board),
            stack_views[2].image_uv[:30],
            stack_views[3].image_uv,
        ]
        views, errors = views_from_points(ids, boards, images)
        assert errors == [None] * 5
        assert views[2].principal_line is None
        for view_id, view, b, i in zip(ids, views, boards, images):
            single = CalibrationView.from_points(view_id, b, i)
            assert view.id == view_id
            assert view.homography.h.tobytes() == single.homography.h.tobytes()
            assert view.board_xy.tobytes() == single.board_xy.tobytes()
            assert not view.board_xy.flags.writeable and not view.image_uv.flags.writeable
            assert_matches_reference(view)

    def test_bad_views_fail_alone(self):
        board = grid_board()
        good, _ = tilted_scene_views(rolls=[0.0, 45.0, 90.0])
        collinear = board.copy()
        collinear[:, 1] = 0.0
        with_nan = good[2].image_uv.copy()
        with_nan[5, 1] = np.nan
        ids = ["g0", "line", "g1", "nan", "same", "three"]
        boards = [board, collinear, board, board, board, board[:3]]
        coincident = np.full((54, 2), 7.0)
        images = [good[0].image_uv, good[1].image_uv, good[1].image_uv, with_nan, coincident, good[0].image_uv[:3]]
        views, errors = views_from_points(ids, boards, images)
        assert [v is not None for v in views] == [True, False, True, False, False, False]
        assert "rank deficient" in str(errors[1]) and isinstance(errors[1], DegenerateConfiguration)
        assert str(errors[3]) == "view nan: corner coordinates must be finite"
        assert str(errors[4]) == "all points coincide"
        assert "at least 4 corners" in str(errors[5])
        alone = CalibrationView.from_points("g1", board, good[1].image_uv)
        assert views[2].homography.h.tobytes() == alone.homography.h.tobytes()

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            (
                lambda corners: [c.update(y_mm=0.0) for c in corners],
                "design matrix is rank deficient (collinear or duplicated board points)",
            ),
            (lambda corners: corners[5].update(u_px=float("nan")), "view {id}: corner coordinates must be finite"),
        ],
        ids=["collinear", "nan"],
    )
    def test_bad_view_in_json_cell_is_named(self, corrupt, detail):
        dataset = generate_dataset(SceneConfig.for_camera("cam1", rng_seed=256, noise_sigma_px=0.5))
        node = json.loads(dumps_dataset(dataset))
        view = node["cells"][1]["views"][3]
        corrupt(view["corners"])
        with pytest.raises(ConfigError) as exc:
            loads_dataset(json.dumps(node))
        assert str(exc.value) == f"malformed dataset at cell 1, view {view['id']}: " + detail.format(id=view["id"])
