"""Tests for the geometric and algebraic calibrators and LM refinement."""

import json
import math

import numpy as np
import pytest

from caliblab import calibrate
from caliblab.calibrate import (
    FOCAL_DENOM_RTOL,
    CalibrationResult,
    Cell,
    Intrinsics,
    _board_points,
    _conic_rows,
    _damped_steps,
    _decompose_homographies,
    _intrinsic_arrays,
    _levenberg_marquardt,
    _pose_rows,
    _views_problem,
    _views_rmse,
    calibrate_algebraic,
    calibrate_geometric,
    focal_from_homographies,
    refine,
    refit_view_poses,
    views_from_points,
)
from caliblab.analysis import calibrate_views
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
from caliblab.geometry import DLT_RANK_RTOL, Point2, estimate_homographies
from caliblab.principal_line import DEFAULT_CONDITION_LIMIT, DIRECTION_EPS, PERSPECTIVE_EPS, principal_lines
from caliblab.synth import SceneConfig, generate_dataset
from caliblab.rotations import rodrigues

from conftest import (
    bias_half_board,
    build_cell,
    canonical_homography,
    dense_joint_jacobian,
    frozen_cameras,
    grid_board,
    joint_stack,
    only,
    oracle_rot_x,
    oracle_rot_z,
    pinhole_project,
    random_camera_map,
    retraction_differences,
    scene_homography,
    shared_camera,
    short_view,
    tilted_scene_cell,
    view_points,
    with_image,
)


def tilt45_homography(f=1000.0, pp=(500.0, 400.0)):
    return canonical_homography(scene_homography(f, pp, oracle_rot_x(45.0), [0.0, 0.0, 1000.0]))


class TestFocalFromHomography:
    def test_pure_x_tilt_single_constraint(self):
        # h7 = 0 kills the orthogonality constraint; the equal-norm one
        # yields f^2 = (1e6 - (1000 cos 45)^2) / sin^2 45 = 1e6 exactly.
        estimates = focal_from_homographies(tilt45_homography()[None], Point2(500.0, 400.0))
        assert len(estimates) == 1
        assert estimates[0] == pytest.approx(1000.0, rel=1e-9)

    def test_fronto_parallel_empty(self):
        h = canonical_homography(scene_homography(1000.0, (500.0, 400.0), np.eye(3), [0.0, 0.0, 1000.0]))
        assert focal_from_homographies(h[None], Point2(500.0, 400.0)) == []

    def test_general_pose_both_constraints(self):
        # in-plane pattern rotation after the tilt makes both rotation
        # columns dip out of the image plane, so both closed forms apply
        rot = oracle_rot_x(45.0) @ oracle_rot_z(30.0)
        h = canonical_homography(scene_homography(3000.0, (2000.0, 1500.0), rot, [0.0, 0.0, 900.0]))
        estimates = focal_from_homographies(h[None], Point2(2000.0, 1500.0))
        assert len(estimates) == 2
        for f in estimates:
            assert f == pytest.approx(3000.0, abs=1e-6)

    @pytest.mark.parametrize("ratio, expected", [(0.99, [2000.0]), (1.01, [1000.0, 2000.0])])
    def test_denominator_gate(self, ratio, expected):
        # one percent either side of FOCAL_DENOM_RTOL: with the principal
        # point at the origin, the orthogonality constraint (denominator
        # h7 h8) gives f = 1000 and the equal-norm one (h8^2 - h7^2) f = 2000
        h7, h8 = ratio * FOCAL_DENOM_RTOL, 1.0
        h = np.array([[2000.0, -500.0 * h7, 0.0], [0.0, 0.0, 500.0], [h7, h8, 1.0]])
        assert h7 * h8 / (FOCAL_DENOM_RTOL * (h7 * h7 + h8 * h8)) == pytest.approx(ratio, rel=1e-6)
        assert focal_from_homographies(h[None], Point2(0.0, 0.0)) == pytest.approx(expected, rel=1e-9)

    def test_stack_equals_one_view_calls(self):
        # the three cases above in one stack give their estimates view by
        # view, bit for bit
        rot = oracle_rot_x(45.0) @ oracle_rot_z(30.0)
        hs = np.array(
            [
                tilt45_homography(),
                canonical_homography(scene_homography(1000.0, (500.0, 400.0), np.eye(3), [0.0, 0.0, 1000.0])),
                canonical_homography(scene_homography(3000.0, (2000.0, 1500.0), rot, [0.0, 0.0, 900.0])),
            ]
        )
        pp = Point2(700.0, 600.0)
        alone = [f for h in hs for f in focal_from_homographies(h[None], pp)]
        assert focal_from_homographies(hs, pp) == alone


class TestExtrinsicsFromHomography:
    def test_recovers_exact_pose(self):
        rot = oracle_rot_z(70.0) @ oracle_rot_x(40.0)
        t = np.array([30.0, -50.0, 1200.0])
        h = canonical_homography(scene_homography(2500.0, (1000.0, 800.0), rot, t))
        intr = Intrinsics(2500.0, Point2(1000.0, 800.0))
        rots, ts, _ = _decompose_homographies(h[None], *_intrinsic_arrays([intr]))
        np.testing.assert_allclose(rots[0], rot, atol=1e-8)
        np.testing.assert_allclose(ts[0], t, rtol=1e-8)

    def test_sign_invariance(self):
        rot = oracle_rot_x(45.0)
        m = scene_homography(1000.0, (500.0, 400.0), rot, [0.0, 0.0, 1000.0])
        intr = Intrinsics(1000.0, Point2(500.0, 400.0))
        hs = np.array([canonical_homography(m), canonical_homography(-m)])
        rots, ts, _ = _decompose_homographies(hs, *_intrinsic_arrays([intr] * 2))
        np.testing.assert_array_equal(rots[0], rots[1])
        np.testing.assert_array_equal(ts[0], ts[1])

    def test_noisy_views_still_give_exact_rotations(self, board, rng):
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        for _ in range(20):
            cell, _ = tilted_scene_cell(rolls=[float(rng.uniform(0, 360))], sigma=0.5, rng=rng)
            (rot,), _, _ = _decompose_homographies(cell.h, *_intrinsic_arrays([intr]))
            assert np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)


class TestCalibrateGeometric:
    def test_recovers_ground_truth_noise_free(self):
        cell, _ = tilted_scene_cell()
        result = calibrate_geometric(cell)
        assert math.hypot(result.intrinsics.pp.u - 3024.0, result.intrinsics.pp.v - 2012.0) < 0.01
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-4
        assert result.rmse < 1e-6
        assert result.flags == ()
        assert 1.0 <= result.diagnostics["condition"] < DEFAULT_CONDITION_LIMIT
        samples = focal_from_homographies(cell.h, result.intrinsics.pp)
        assert min(samples) <= result.intrinsics.f <= max(samples)

    def test_flags_biased_view(self, board):
        cell, _ = tilted_scene_cell()
        cell = with_image(cell, 3, bias_half_board(*view_points(cell, 3)))
        result = calibrate_geometric(cell)
        assert "v3" in result.flags
        assert math.hypot(result.intrinsics.pp.u - 3024.0, result.intrinsics.pp.v - 2012.0) < 0.1
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-3

    def test_one_view_insufficient(self):
        cell, _ = tilted_scene_cell(rolls=[0.0])
        with pytest.raises(InsufficientViews):
            calibrate_geometric(cell)

    def test_two_views_suffice(self):
        cell, _ = tilted_scene_cell(rolls=[0.0, 45.0])
        result = calibrate_geometric(cell)
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-6

    def test_rotations_stay_orthonormal_under_noise(self, rng):
        cell, _ = tilted_scene_cell(sigma=1.0, rng=rng)
        result = calibrate_geometric(cell)
        for rot in result.rot:
            assert np.abs(rot.T @ rot - np.eye(3)).max() <= 1e-9

    def test_median_aggregation_robust(self):
        cell, _ = tilted_scene_cell()
        result = calibrate_geometric(cell)
        pp = result.intrinsics.pp
        samples = focal_from_homographies(cell.h, pp)
        corrupted = [f * 2.0 for f in focal_from_homographies(cell.h[:1], pp)] + focal_from_homographies(cell.h[1:], pp)
        assert abs(np.median(corrupted) - np.median(samples)) / np.median(samples) < 0.01


class TestGeometricEquivariance:
    """Camera-model properties of the calibration routes on noisy cam1
    cells. The board-unit case covers the algebraic route at the scales of
    mm -> m and inch -> mm: its worst pp deviation measured 6.7e-11 px."""

    @pytest.fixture(scope="class")
    def cells(self):
        return list(generate_dataset(SceneConfig.for_camera("cam1", rng_seed=256, noise_sigma_px=0.5)).cells.values())

    @staticmethod
    def assert_same_intrinsics(a, b):
        assert math.hypot(a.intrinsics.pp.u - b.intrinsics.pp.u, a.intrinsics.pp.v - b.intrinsics.pp.v) < 1e-8
        assert abs(a.intrinsics.f - b.intrinsics.f) <= 1e-12 * b.intrinsics.f

    def test_board_units_scale_translations_only(self, cells):
        for cell in cells:
            boards, images = zip(*(view_points(cell, i) for i in range(len(cell))))
            for method, scale in [("geometric", 2.5), ("algebraic", 0.001), ("algebraic", 25.4)]:
                base = calibrate_views(method, cell, 5.0)
                rebuilt, errors = views_from_points(cell.ids, [scale * b for b in boards], images)
                assert errors == [None] * len(cell)
                scaled = calibrate_views(method, rebuilt, 5.0)
                self.assert_same_intrinsics(scaled, base)
                assert scaled.views.ids == base.views.ids
                np.testing.assert_allclose(scaled.rot, base.rot, rtol=0.0, atol=1e-12)
                assert np.abs(scaled.t - scale * base.t).max() <= 1e-12 * np.abs(scale * base.t).max()

    def test_view_order_only_reorders_poses(self, cells):
        rng = np.random.default_rng(0)
        for cell in cells:
            base = calibrate_geometric(cell)
            permuted = calibrate_geometric(cell.take(rng.permutation(len(cell))))
            self.assert_same_intrinsics(permuted, base)
            assert sorted(permuted.views.ids) == sorted(base.views.ids)
            rows = [base.views.ids.index(view_id) for view_id in permuted.views.ids]
            np.testing.assert_allclose(permuted.rot, base.rot[rows], rtol=0.0, atol=1e-12)
            assert np.abs(permuted.t - base.t[rows]).max() <= 1e-12 * np.abs(base.t).max()


class TestImageShift:
    """Translating every image point by (du, dv) moves the principal point
    by (du, dv) and leaves f and the accepted views unchanged, on every
    route, over the 28 cells of a noisy cam1 dataset.

    Measured worst deviations for the shift (37.5, -21.25) px on cam1 seed
    256 at sigma 0.5 px (numpy 2.4.6, OpenBLAS, x86-64):
    - geometric: pp 3.7e-11 px, f 4.4e-15 relative (exact up to roundoff);
    - algebraic: pp 1.1e-10 px, f 1.5e-15 relative. Each view's conic rows
      are built from homography columns scaled to unit norm, so the shift
      does not reweight the views (without that scaling, 0.42 px here and
      7.1 px at (1000, 1000));
    - algebraic-refined: pp 1.8e-6 px, f 1.2e-11 relative, where LM stops
      on a relative cost change of 1e-12.
    Each tolerance is a few times its measurement."""

    SHIFT = (37.5, -21.25)

    @pytest.fixture(scope="class")
    def cells(self):
        dataset = generate_dataset(SceneConfig.for_camera("cam1", rng_seed=256, noise_sigma_px=0.5))
        shifted = []
        for cell in dataset.cells.values():
            boards, images = zip(*(view_points(cell, i) for i in range(len(cell))))
            shifted.append((cell, build_cell(cell.ids, boards, [uv + self.SHIFT for uv in images])))
        return shifted

    @pytest.mark.parametrize(
        "method, pp_tol_px, f_rtol",
        [("geometric", 1e-9, 1e-13), ("algebraic", 5e-10, 1e-14), ("algebraic-refined", 1e-4, 1e-9)],
    )
    def test_shift_moves_pp_only(self, cells, method, pp_tol_px, f_rtol):
        du, dv = self.SHIFT
        for cell, moved in cells:
            base = calibrate_views(method, cell, 5.0)
            shifted = calibrate_views(method, moved, 5.0)
            pp, pp0 = shifted.intrinsics.pp, base.intrinsics.pp
            assert math.hypot(pp.u - pp0.u - du, pp.v - pp0.v - dv) <= pp_tol_px
            assert abs(shifted.intrinsics.f - base.intrinsics.f) <= f_rtol * base.intrinsics.f
            assert shifted.views.ids == base.views.ids


class TestCalibrateAlgebraic:
    def test_recovers_ground_truth_noise_free(self):
        cell, _ = tilted_scene_cell()
        result = calibrate_algebraic(cell)
        assert abs(result.intrinsics.f - 3000.0) / 3000.0 < 1e-6
        assert abs(result.intrinsics.pp.u - 3024.0) / 3024.0 < 1e-6
        assert abs(result.intrinsics.pp.v - 2012.0) / 2012.0 < 1e-6
        assert result.diagnostics == {}

    def test_identical_rotations_degenerate(self, board):
        rot = oracle_rot_x(45.0)
        center = board.mean(axis=0)
        images = []
        for shift in [(0.0, 0.0), (40.0, 10.0), (-30.0, 25.0)]:
            t = np.array([shift[0], shift[1], 800.0]) - rot @ np.array([center[0], center[1], 0.0])
            images.append(pinhole_project(3000.0, (3024.0, 2012.0), rot, t, board))
        with pytest.raises(DegenerateSystem):
            calibrate_algebraic(build_cell(["v0", "v1", "v2"], [board] * 3, images))

    def test_two_views_insufficient(self):
        cell, _ = tilted_scene_cell(rolls=[0.0, 45.0])
        with pytest.raises(InsufficientViews):
            calibrate_algebraic(cell)

    def test_insufficient_views_is_a_degenerate_system(self):
        # below three views the conic system is underdetermined, so the
        # error doubles as a DegenerateSystem
        cell, _ = tilted_scene_cell(rolls=[0.0, 45.0])
        with pytest.raises(DegenerateSystem):
            calibrate_algebraic(cell)


class TestRefine:
    def test_converges_from_perturbed_focal(self):
        cell, _ = tilted_scene_cell()
        result = calibrate_geometric(cell)
        start = CalibrationResult(
            intrinsics=Intrinsics(result.intrinsics.f * 1.05, result.intrinsics.pp),
            rot=result.rot,
            t=result.t,
            views=result.views,
            rmse=_views_rmse(
                Intrinsics(result.intrinsics.f * 1.05, result.intrinsics.pp),
                result.rot[:1],
                result.t[:1],
                cell.take([0]),
            ),
            flags=result.flags,
        )
        refined = only(refine([start]))
        assert abs(refined.intrinsics.f - 3000.0) / 3000.0 < 1e-8
        assert refined.diagnostics["converged"]

    def test_fixed_point_at_optimum(self):
        cell, _ = tilted_scene_cell()
        result = calibrate_geometric(cell)
        refined = only(refine([result]))
        n = int(cell.count.sum())
        cost_before = result.rmse**2 * n
        cost_after = refined.rmse**2 * n
        assert cost_before - cost_after < 1e-15
        assert abs(refined.intrinsics.f - result.intrinsics.f) < 1e-9

    def test_noisy_refinement_improves_rmse(self, rng):
        cell, _ = tilted_scene_cell(sigma=0.5, rng=rng)
        result = calibrate_geometric(cell)
        refined = only(refine([result]))
        assert refined.rmse <= result.rmse + 1e-12

    @staticmethod
    def jacobian_cases(rng):
        """Ten noisy cells of random geometry, the last one with a view cut
        to 27 corners so that its stack carries padding."""
        for k in range(10):
            cell, _ = tilted_scene_cell(
                f=float(rng.uniform(1500, 6000)),
                pp=(float(rng.uniform(1000, 4000)), float(rng.uniform(800, 3000))),
                tilt_deg=float(rng.uniform(25, 65)),
                rolls=[float(r) for r in rng.uniform(0, 360, 3)],
                sigma=0.5,
                rng=rng,
            )
            if k == 9:
                short = short_view(cell, 1)
                cell = Cell.concat([cell.take([0]), short, cell.take([2])])
            yield calibrate_geometric(cell)

    def test_jacobian_matches_central_differences(self, rng):
        # the dense Jacobian built from the per-view pose rows against
        # central differences of the retraction along each step coordinate,
        # checked relative to the column scale: each column is one step
        # coordinate's sensitivity, so entries within it share units; with
        # the refined camera (P = 3) and with a random map per view (P = 5)
        map_rng = np.random.default_rng(5)
        for result in self.jacobian_cases(rng):
            pts, image, mask, params = joint_stack(result)
            for (cam_map, cam_offset), x in (
                (shared_camera(1), params),
                random_camera_map(map_rng, params, len(mask)),
            ):
                residuals, _, retract = _views_problem(pts, image, mask, cam_map, cam_offset)
                jac = dense_joint_jacobian(x[0], pts[0], mask, cam_map, cam_offset[0])
                fd = retraction_differences(residuals, retract, x, head=cam_map.shape[-1])[0]
                col_scale = np.abs(fd).max(axis=0)
                rel = np.abs(jac - fd).max(axis=0) / col_scale
                assert rel.max() < 1e-4

    def test_normal_equations_equal_dense_products(self, rng):
        # each view's block-arrow block and gradient are that view's part of
        # J^T J and J^T r of the dense Jacobian, up to summation order: the
        # shared block, its coupling and the pose block with the camera
        # refined (P = 3) or mapped from 5 parameters by a random map per
        # view (P = 5), the pose block alone under frozen intrinsics
        # (P = 0); the dense J^T J couples no two views' poses
        rows = np.arange(1)
        map_rng = np.random.default_rng(5)
        for result in self.jacobian_cases(rng):
            pts, image, mask, params = joint_stack(result)
            for (cam_map, cam_offset), x in (
                (shared_camera(1), params),
                (frozen_cameras([result.intrinsics]), params[:, 3:]),
                random_camera_map(map_rng, params, len(mask)),
            ):
                shared = cam_map.shape[-1]
                residuals, normal_equations, _ = _views_problem(pts, image, mask, cam_map, cam_offset)
                res = residuals(x, rows)
                blocks, grads = normal_equations(x, rows, res)
                jac = dense_joint_jacobian(x[0], pts[0], mask, cam_map, cam_offset[0])
                owner = np.repeat(np.arange(len(mask)), 2 * mask.sum(axis=1))  # view of each residual
                for v in range(len(mask)):
                    cols = np.r_[:shared, shared + 6 * v : shared + 6 * v + 6]
                    jac_v = jac[owner == v][:, cols]
                    dense_block, dense_grad = jac_v.T @ jac_v, jac_v.T @ res[0, owner == v]
                    assert np.abs(blocks[0, v] - dense_block).max() <= 1e-12 * np.abs(dense_block).max()
                    assert np.abs(grads[0, v] - dense_grad).max() <= 1e-12 * np.abs(dense_grad).max()
                poses = (jac.T @ jac)[shared:, shared:].reshape(len(mask), 6, len(mask), 6)
                off_diagonal = ~np.eye(len(mask), dtype=bool)
                assert not np.any(np.swapaxes(poses, 1, 2)[off_diagonal])

    def test_pose_only_refit(self):
        cell, truth = tilted_scene_cell()
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        refits = refit_view_poses([intr], cell.take([0]))
        np.testing.assert_allclose(refits.rot[0], truth[0][0], atol=1e-7)
        assert refits.rmse[0] < 1e-7


class TestBatchedPoseRefit:
    def test_pose_jacobian_matches_central_differences(self, rng):
        # one stacked pose-only problem per view, at random rotations; view
        # 0 sits at the identity rotation
        cell, truth = tilted_scene_cell(rolls=[0.0, 45.0, 200.0], sigma=0.5, rng=rng)
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        pts = _board_points(cell.board)
        rot = rodrigues(rng.normal(0.0, 0.5, (len(cell), 3)))
        rot[0] = np.eye(3)
        params = np.concatenate([rot.reshape(-1, 9), [t for _, t in truth]], axis=1)
        f, _ = _intrinsic_arrays([intr] * len(cell))
        mask = np.ones((1, cell.board.shape[1]), dtype=bool)
        residuals, normal_equations, retract = _views_problem(
            pts[:, None], cell.image[:, None], mask, *frozen_cameras([intr] * len(cell))
        )
        rows = np.arange(len(cell))
        jac = np.zeros(pts.shape[:-1] + (2, 6))
        _pose_rows(f[:, None], rot, params[:, 9:], pts, jac)
        jac = jac.reshape(len(cell), -1, 6)
        fd = retraction_differences(residuals, retract, params, head=0)
        col_scale = np.abs(fd).max(axis=1)
        assert (np.abs(jac - fd).max(axis=1) / col_scale).max() < 1e-4
        # the callback's one block per problem is J^T J and J^T r of that
        # Jacobian, and a problem's system does not depend on the batch
        # around it
        res = residuals(params, rows)
        blocks, grads = normal_equations(params, rows, res)
        assert blocks.shape == (len(cell), 1, 6, 6) and grads.shape == (len(cell), 1, 6)
        jac_t = np.swapaxes(jac, -1, -2)
        np.testing.assert_array_equal(blocks[:, 0], jac_t @ jac)
        np.testing.assert_array_equal(grads[:, 0], (jac_t @ res[..., None])[..., 0])
        alone = normal_equations(params[:1], rows[:1], res[:1])
        np.testing.assert_array_equal(alone[0][0], blocks[0])
        np.testing.assert_array_equal(alone[1][0], grads[0])

    def test_kernel_keeps_per_problem_schedule(self, rng):
        # starts at different distances from the optimum take different
        # numbers of iterations; each problem must stop and damp as if solved
        # alone, so iteration counts and results match one-problem calls
        cell, truth = tilted_scene_cell(sigma=0.5, rng=rng)
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        pts, image = _board_points(cell.board[:, None]), cell.image[:, None]
        mask = np.ones((1, cell.board.shape[1]), dtype=bool)
        problem = _views_problem(pts, image, mask, *frozen_cameras([intr] * len(cell)))
        params0 = np.array([np.concatenate([rot.ravel(), t]) for rot, t in truth])
        steps = rng.normal(0.0, 1.0, (len(cell), 6)) * np.geomspace(1e-6, 0.3, len(cell))[:, None]
        params0 = problem[2](params0, steps)
        stacked = _levenberg_marquardt(params0, *problem)
        assert len(set(stacked[3].tolist())) > 1
        for i in range(len(cell)):
            alone = _levenberg_marquardt(
                params0[i : i + 1],
                *_views_problem(pts[i : i + 1], image[i : i + 1], mask, *frozen_cameras([intr])),
            )
            np.testing.assert_allclose(stacked[0][i], alone[0][0], rtol=1e-12, atol=0.0)
            assert abs(stacked[1][i] - alone[1][0]) <= 1e-12 * alone[1][0]
            assert (stacked[2][i], stacked[3][i]) == (alone[2][0], alone[3][0])

    def test_batch_equals_single_refits(self, rng):
        cell, _ = tilted_scene_cell(sigma=0.5, rng=rng)
        # a view with fewer corners is solved in a stack of its own
        short = short_view(cell, 3)
        views = Cell.concat([cell.take([5]), short, cell.take([0, 1, 2])])
        intr = Intrinsics(3010.0, Point2(3030.0, 2000.0))
        refits = refit_view_poses([intr] * len(views), views)
        assert refits.errors == (None,) * len(views)
        for i in range(len(views)):
            alone = refit_view_poses([intr], views.take([i]))
            np.testing.assert_allclose(refits.rot[i], alone.rot[0], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(refits.t[i], alone.t[0], rtol=0.0, atol=1e-9)
            assert abs(refits.rmse[i] - alone.rmse[0]) <= 1e-12

    def test_mixed_intrinsics_equal_one_call_per_intrinsics(self, rng):
        # three cameras interleaved in one stack, with a short view solved in
        # a stack of its own and a view whose board plane passes through the
        # camera center under any intrinsics
        cell, _ = tilted_scene_cell(sigma=0.5, rng=rng)
        short = short_view(cell, 3)
        h = scene_homography(3000.0, (3024.0, 2012.0), oracle_rot_x(45.0), [0.0, 800.0, 1e-9])
        through = Cell(
            ("through-center",), cell.board[2:3], cell.image[2:3], cell.count[2:3],
            canonical_homography(h)[None],
        )
        cameras = [
            Intrinsics(3000.0, Point2(3024.0, 2012.0)),
            Intrinsics(3100.0, Point2(3000.0, 2050.0)),
            Intrinsics(2950.0, Point2(3060.0, 1990.0)),
        ]
        one = [cell.take([i]) for i in range(len(cell))]
        mixed = Cell.concat([one[0], short, one[1], through, one[2], one[5], short, one[0], one[4]])
        owner = [i % len(cameras) for i in range(len(mixed))]
        refits = refit_view_poses([cameras[k] for k in owner], mixed)
        expected = [BehindCamera if view_id == "through-center" else type(None) for view_id in mixed.ids]
        assert [type(e) for e in refits.errors] == expected
        for k, camera in enumerate(cameras):
            rows = [i for i, o in enumerate(owner) if o == k]
            alone = refit_view_poses([camera] * len(rows), mixed.take(rows))
            np.testing.assert_array_equal(refits.rot[rows], alone.rot)
            np.testing.assert_array_equal(refits.t[rows], alone.t)
            np.testing.assert_array_equal(refits.rmse[rows], alone.rmse)
            assert [str(refits.errors[i]) for i in rows] == [str(e) for e in alone.errors]

    def test_intrinsics_must_match_views(self):
        cell, _ = tilted_scene_cell(rolls=[0.0, 45.0])
        with pytest.raises(ValueError, match="1 intrinsics for 2 views"):
            refit_view_poses([Intrinsics(3000.0, Point2(3024.0, 2012.0))], cell)

    def test_singular_system_falls_back_per_problem(self, rng):
        # at lam = 0 the damped system is J^T J itself. A zero row and column
        # make it exactly singular: in one case the pose block of view 1 of
        # problem 2, in the other the shared (f, u0, v0) coordinate 0 of
        # problem 1, and so its reduced 3x3 system. The stacked solve then
        # raises, and every problem is solved alone
        jac = rng.normal(size=(4, 3, 20, 9))
        blocks = np.swapaxes(jac, -1, -2) @ jac
        grads = rng.normal(size=(4, 3, 9))
        lam = np.array([1e-3, 1e-2, 1e-3, 1e4])
        for problem, zeroed in ((2, (slice(1, 2), 5)), (1, (slice(None), 0))):
            case_blocks, case_lam = blocks.copy(), lam.copy()
            views, k = zeroed
            case_blocks[problem, views, k, :] = case_blocks[problem, views, :, k] = 0.0
            case_lam[problem] = 0.0
            steps, solved = _damped_steps(case_blocks, grads, case_lam)
            assert solved.tolist() == [i != problem for i in range(4)]
            for i in set(range(4)) - {problem}:
                alone, (ok,) = _damped_steps(case_blocks[i : i + 1], grads[i : i + 1], case_lam[i : i + 1])
                assert ok
                np.testing.assert_array_equal(steps[i], alone[0])

    @staticmethod
    def break_kernel(monkeypatch, behind, non_finite):
        """Make the LM kernel return the problems `behind` with the board
        behind the camera and the problems `non_finite` with a NaN pose."""
        kernel = calibrate._levenberg_marquardt

        def broken(params0, *callbacks, **kwargs):
            params, *rest = kernel(params0, *callbacks, **kwargs)
            params = params.copy()
            params[behind, 9:] *= -1.0  # t
            params[non_finite, 0] = np.nan
            return (params, *rest)

        monkeypatch.setattr(calibrate, "_levenberg_marquardt", broken)

    def test_failed_refit_names_its_view(self, monkeypatch):
        cell, _ = tilted_scene_cell(rolls=[0.0, 45.0, 90.0])
        intr = Intrinsics(3000.0, Point2(3024.0, 2012.0))
        self.break_kernel(monkeypatch, behind=[1], non_finite=[2])
        refits = refit_view_poses([intr] * len(cell), cell)
        assert refits.errors[0] is None and np.isfinite(refits.rmse[0])
        for i in (1, 2):
            assert isinstance(refits.errors[i], BehindCamera)
            assert str(refits.errors[i]).startswith(f"view {cell.ids[i]}: ")
            assert np.isnan(refits.rmse[i]) and np.all(np.isnan(refits.t[i]))

    def test_single_failed_refit_raises_behind_camera(self, monkeypatch):
        cell, _ = tilted_scene_cell(rolls=[45.0])
        self.break_kernel(monkeypatch, behind=[0], non_finite=[])
        (error,) = refit_view_poses([Intrinsics(3000.0, Point2(3024.0, 2012.0))], cell).errors
        assert isinstance(error, BehindCamera) and str(error).startswith("view v0: ")


class TestExtrinsicEdgeCases:
    def test_behind_camera(self):
        # board origin in the camera plane: recovered t_z collapses to 0
        rot = oracle_rot_x(45.0)
        h = canonical_homography(scene_homography(1000.0, (500.0, 400.0), rot, [0.0, 800.0, 1e-9]))
        intr = Intrinsics(1000.0, Point2(500.0, 400.0))
        _, _, through_center = _decompose_homographies(h[None], *_intrinsic_arrays([intr]))
        assert through_center[0]
        board = grid_board()[None]
        cell = Cell(("v",), board, board.copy(), np.array([54]), h[None])
        assert isinstance(refit_view_poses([intr], cell).errors[0], BehindCamera)


class TestViewRmse:
    def test_positive_after_pp_shift_with_frozen_refit(self):
        cell, _ = tilted_scene_cell()
        shifted = Intrinsics(3000.0, Point2(3024.0 + 50.0, 2012.0))
        assert refit_view_poses([shifted], cell.take([0])).rmse[0] > 0.05


def normalized_design(board, image):
    """One view's 2n x 9 DLT design matrix in normalized coordinates, as a
    loop over views builds it, with the board and image normalizations."""

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
    return design, tb, tq


def reference_homography(board, image):
    """One view's normalized DLT, as a loop over views computes it: the
    raw matrix before scaling and sign, or the error."""
    design, tb, tq = normalized_design(board, image)
    _, sing, vt = np.linalg.svd(design)
    if sing[7] <= DLT_RANK_RTOL * sing[0]:
        raise DegenerateConfiguration("design matrix is rank deficient (collinear or duplicated board points)")
    return np.linalg.inv(tq) @ vt[-1].reshape(3, 3) @ tb


def reference_line(h):
    """One view's principal line (a, b, c), or the error, as a loop over
    views computes it."""
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
    return (a, b, c)


def assert_matches_reference(cell, row):
    """Row `row` of the cell's homographies, and of the principal lines of
    the whole stack, equal the one-view reference computations bit for bit."""
    expected = canonical_homography(reference_homography(*view_points(cell, row)))
    assert cell.h[row].tobytes() == expected.tobytes()
    lines, _ = principal_lines(cell.h)
    try:
        line = reference_line(expected)
    except (DegenerateView, AmbiguousDirection):
        assert np.isnan(lines[row]).all()
        return
    assert lines[row].tobytes() == np.array(line).tobytes()


def conic_system(cell):
    """The 2V x 6 absolute-conic system of a cell in similarity-normalized
    image coordinates, as calibrate_algebraic builds it."""
    uv = cell.image[cell.mask]
    center = uv.mean(axis=0)
    spread = float(np.sqrt(np.mean(np.sum((uv - center) ** 2, axis=1))))
    tmat = np.array(
        [[1.0 / spread, 0.0, -center[0] / spread], [0.0, 1.0 / spread, -center[1] / spread], [0.0, 0.0, 1.0]]
    )
    hs = tmat @ cell.h
    vmat = np.empty((2 * len(cell), 6))
    vmat[0::2] = _conic_rows(hs[:, :, 0], hs[:, :, 1])
    vmat[1::2] = _conic_rows(hs[:, :, 0], hs[:, :, 0]) - _conic_rows(hs[:, :, 1], hs[:, :, 1])
    return vmat


class TestRankBoundaries:
    """One percent either side of DLT_RANK_RTOL and CONIC_RANK_RTOL. Each
    test measures the singular-value ratio of a near-degenerate system and
    sets the tolerance to the ratio / 0.99 (the system is rejected) and to
    the ratio / 1.01 (it is accepted and solved)."""

    @pytest.mark.parametrize("ratio", [0.99, 1.01])
    def test_dlt_rank_tolerance(self, monkeypatch, ratio):
        # a 9 x 6 grid whose rows are 2.5e-3 mm apart: nearly collinear
        board = grid_board() * np.array([1.0, 1e-4])
        rot, t = oracle_rot_x(45.0), np.array([-100.0, 0.0, 1000.0])
        image = pinhole_project(1000.0, (500.0, 400.0), rot, t, board)
        sing = np.linalg.svd(normalized_design(board, image)[0], compute_uv=False)
        monkeypatch.setattr("caliblab.geometry.DLT_RANK_RTOL", sing[7] / sing[0] / ratio)
        (h,), (error,) = estimate_homographies(board[None], image[None])
        if ratio < 1.0:
            assert isinstance(error, DegenerateConfiguration) and "rank deficient" in str(error)
            assert np.all(np.isnan(h))
        else:
            assert error is None
            expected = canonical_homography(scene_homography(1000.0, (500.0, 400.0), rot, t))
            np.testing.assert_allclose(h, expected, atol=1e-12)

    @pytest.mark.parametrize("ratio", [0.99, 1.01])
    def test_conic_rank_tolerance(self, monkeypatch, ratio):
        # three views whose rolls differ by 0.1 degree exercise nearly one rotation
        cell, _ = tilted_scene_cell(rolls=[0.0, 0.1, 0.2])
        sing = np.linalg.svd(conic_system(cell), compute_uv=False)
        monkeypatch.setattr(calibrate, "CONIC_RANK_RTOL", sing[4] / sing[0] / ratio)
        if ratio < 1.0:
            with pytest.raises(DegenerateSystem, match="rank deficient"):
                calibrate_algebraic(cell)
        else:
            # the ratio is 1.1e-7, so the null vector keeps about 9 digits
            intr = calibrate_algebraic(cell).intrinsics
            assert math.hypot(intr.pp.u - 3024.0, intr.pp.v - 2012.0) < 1e-4
            assert intr.f == pytest.approx(3000.0, rel=1e-8)


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
        assert built.count.tolist() == [54, 4, 27, 20, 54, 4, 54, 54]
        assert np.isnan(principal_lines(built.h)[0][4]).all()
        assert np.all(built.board[~built.mask] == 0.0) and np.all(built.image[~built.mask] == 0.0)
        for views in loaded.cells.values():
            for row in range(len(views)):
                assert_matches_reference(views, row)

    def test_stack_equals_one_view_calls(self, rng):
        board = grid_board()
        source, _ = tilted_scene_cell(rolls=[0.0, 45.0, 90.0, 200.0], sigma=0.5, rng=rng)
        ids = ["a", "b", "flat", "c", "d"]
        boards = [board, board[[0, 8, 45, 53]], board, board[:30], board]
        images = [
            source.image[0],
            source.image[1][[0, 8, 45, 53]],
            fronto_parallel_uv(board),
            source.image[2][:30],
            source.image[3],
        ]
        cell, errors = views_from_points(ids, boards, images)
        assert errors == [None] * 5
        assert cell.ids == tuple(ids)
        assert cell.count.tolist() == [54, 4, 54, 30, 54]
        lines, _ = principal_lines(cell.h)
        assert np.isnan(lines[2]).all()
        assert all(not array.flags.writeable for array in (cell.board, cell.image, cell.count, cell.h))
        for row, (view_id, b, i) in enumerate(zip(ids, boards, images)):
            single = build_cell([view_id], [b], [i])
            assert cell.h[row].tobytes() == single.h[0].tobytes()
            assert lines[row].tobytes() == principal_lines(single.h)[0][0].tobytes()
            assert view_points(cell, row)[0].tobytes() == b.tobytes()
            assert view_points(cell, row)[1].tobytes() == i.tobytes()
            assert_matches_reference(cell, row)

    def test_bad_views_fail_alone(self):
        board = grid_board()
        good, _ = tilted_scene_cell(rolls=[0.0, 45.0, 90.0])
        collinear = board.copy()
        collinear[:, 1] = 0.0
        with_nan = good.image[2].copy()
        with_nan[5, 1] = np.nan
        ids = ["g0", "line", "g1", "nan", "same", "three"]
        boards = [board, collinear, board, board, board, board[:3]]
        coincident = np.full((54, 2), 7.0)
        images = [good.image[0], good.image[1], good.image[1], with_nan, coincident, good.image[0][:3]]
        cell, errors = views_from_points(ids, boards, images)
        assert [e is None for e in errors] == [True, False, True, False, False, False]
        assert cell.ids == ("g0", "g1")
        assert "rank deficient" in str(errors[1]) and isinstance(errors[1], DegenerateConfiguration)
        assert str(errors[3]) == "corner coordinates must be finite"
        assert str(errors[4]) == "all points coincide"
        assert "at least 4 corners" in str(errors[5])
        alone = build_cell(["g1"], [board], [good.image[1]])
        assert cell.h[1].tobytes() == alone.h[0].tobytes()

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            (
                lambda corners: [c.update(y_mm=0.0) for c in corners],
                "design matrix is rank deficient (collinear or duplicated board points)",
            ),
            (lambda corners: corners[5].update(u_px=float("nan")), "corner coordinates must be finite"),
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
        assert str(exc.value) == f"malformed dataset at cell 1, view {view['id']}: {detail}"
