"""Tests for the closed-form symmetry axis and principal-point estimation."""

import math

import numpy as np
import pytest

from caliblab.errors import (
    AllFlagged,
    AmbiguousDirection,
    DegenerateView,
    ParallelLines,
    TooFewLines,
)
from caliblab.geometry import Homography, Line2, Point2
from caliblab.principal_line import (
    DEFAULT_CONDITION_LIMIT,
    PrincipalLine,
    _loo_distances,
    estimate_pp,
    flag_outlier_lines,
    principal_line,
)
from caliblab.synth import SceneConfig, generate_dataset

from conftest import line_close, oracle_rot_x, oracle_rot_z, scene_homography


def tilted_homography(f=1000.0, pp=(500.0, 400.0), tilt=45.0, roll=0.0, dist=1000.0):
    rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
    return Homography(scene_homography(f, pp, rot, np.array([0.0, 0.0, dist])))


def star_lines(center=(2000.0, 1500.0), n=8, offsets=None):
    """n principal lines through a common point at angles k * 180/n."""
    cu, cv = center
    lines = []
    for k in range(n):
        ang = math.radians(180.0 / n * k)
        a, b = math.sin(ang), -math.cos(ang)  # normal perpendicular to the direction
        c = -(a * cu + b * cv)
        if offsets is not None:
            c += offsets[k]
        lines.append(PrincipalLine.from_line(Line2(a, b, c), source_view=f"l{k}"))
    return lines


class TestPrincipalLine:
    def test_pure_x_tilt_gives_vertical_line(self):
        pl = principal_line(tilted_homography())
        assert line_close(pl.line, (1.0, 0.0, -500.0), tol=1e-9)
        assert abs(pl.direction[0]) < 1e-12  # vertical
        assert pl.anchor.u == pytest.approx(500.0, abs=1e-9)
        assert pl.anchor.v == pytest.approx(1400.0, abs=1e-9)

    def test_passes_through_pp(self):
        pl = principal_line(tilted_homography())
        assert pl.line.distance(Point2(500.0, 400.0)) < 1e-9 * 1000.0

    def test_fronto_parallel_raises(self):
        h = Homography(scene_homography(1000.0, (500.0, 400.0), np.eye(3), [0.0, 0.0, 1000.0]))
        with pytest.raises(DegenerateView):
            principal_line(h)

    def test_roll_equivariance(self):
        pp = np.array([500.0, 400.0])
        base = tilted_homography()
        theta = 45.0
        rot2 = oracle_rot_z(theta)[:2, :2]
        shift = pp - rot2 @ pp
        g = np.array(
            [
                [rot2[0, 0], rot2[0, 1], shift[0]],
                [rot2[1, 0], rot2[1, 1], shift[1]],
                [0.0, 0.0, 1.0],
            ]
        )
        rolled = principal_line(Homography(g @ base.h))
        # the base line (1, 0, -500) rotated by 45 degrees about the pp
        expected = np.linalg.inv(g).T @ np.array([1.0, 0.0, -500.0])
        assert line_close(rolled.line, expected, tol=1e-9)
        assert rolled.line.distance(Point2(500.0, 400.0)) < 1e-9 * 1000.0

    def test_incidence_over_random_poses(self, rng):
        for _ in range(200):
            f = rng.uniform(800.0, 15000.0)
            pp = (rng.uniform(300.0, 4000.0), rng.uniform(300.0, 3000.0))
            tilt = rng.uniform(20.0, 70.0)
            roll = rng.uniform(0.0, 360.0)
            pl = principal_line(tilted_homography(f, pp, tilt, roll))
            assert pl.line.distance(Point2(*pp)) < 1e-9 * f

    def test_direction_follows_board_normal(self, rng):
        # pure tilt about the image x axis keeps the axis vertical
        for tilt in rng.uniform(10.0, 80.0, size=20):
            pl = principal_line(tilted_homography(tilt=float(tilt)))
            assert abs(pl.direction[0]) < 1e-9

    def test_anchor_on_line_invariant(self):
        pl = principal_line(tilted_homography(roll=123.0))
        assert pl.line.distance(pl.anchor) < 1e-9 * max(1.0, abs(pl.anchor.u), abs(pl.anchor.v))

    def test_from_line_helper(self):
        pl = PrincipalLine.from_line(Line2(0.0, 1.0, -1500.0), source_view="x")
        assert pl.anchor.v == pytest.approx(1500.0)
        assert abs(pl.line.a * pl.direction[0] + pl.line.b * pl.direction[1]) < 1e-12


class TestEstimatePP:
    def test_perpendicular_pair(self):
        lines = [
            PrincipalLine.from_line(Line2(1.0, 0.0, -2000.0)),
            PrincipalLine.from_line(Line2(0.0, 1.0, -1500.0)),
        ]
        est = estimate_pp(lines)
        assert est.pp.u == pytest.approx(2000.0)
        assert est.pp.v == pytest.approx(1500.0)
        assert est.rms_residual == pytest.approx(0.0, abs=1e-12)

    def test_concurrent_star(self):
        est = estimate_pp(star_lines())
        assert math.hypot(est.pp.u - 2000.0, est.pp.v - 1500.0) < 1e-9
        assert len(est.per_line_residual) == 8

    def test_noisy_star_monte_carlo(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            est = estimate_pp(star_lines(offsets=rng.normal(0.0, 0.5, 8)))
            if math.hypot(est.pp.u - 2000.0, est.pp.v - 1500.0) < 1.0:
                hits += 1
        assert hits >= 95

    def test_parallel_lines(self):
        lines = [
            PrincipalLine.from_line(Line2(1.0, 0.0, -100.0)),
            PrincipalLine.from_line(Line2(1.0, 0.0, -200.0)),
            PrincipalLine.from_line(Line2(1.0, 1e-9, -300.0)),
        ]
        with pytest.raises(ParallelLines):
            estimate_pp(lines)

    def test_too_few(self):
        with pytest.raises(TooFewLines):
            estimate_pp(star_lines()[:1])

    def test_exact_minimizer(self, rng):
        lines = star_lines(offsets=rng.normal(0.0, 2.0, 8))
        est = estimate_pp(lines)

        def cost(u, v):
            return sum((pl.line.a * u + pl.line.b * v + pl.line.c) ** 2 for pl in lines)

        base = cost(est.pp.u, est.pp.v)
        for k in range(8):
            ang = math.radians(45.0 * k)
            du, dv = 1e-3 * math.cos(ang), 1e-3 * math.sin(ang)
            assert cost(est.pp.u + du, est.pp.v + dv) >= base - 1e-12 * max(base, 1.0)


class TestFlagOutliers:
    def test_concurrent_bundle_clean(self):
        inliers, outliers = flag_outlier_lines(star_lines(), threshold_px=5.0)
        assert outliers == []
        assert len(inliers) == 8

    def test_single_offset_line_flagged(self):
        lines = star_lines(offsets=[0.0] * 7 + [40.0])
        inliers, outliers = flag_outlier_lines(lines, threshold_px=5.0)
        assert [pl.source_view for pl in outliers] == ["l7"]
        est_all = estimate_pp(lines)
        est_in = estimate_pp(inliers)
        assert est_in.rms_residual <= est_all.rms_residual

    def test_too_few(self):
        with pytest.raises(TooFewLines):
            flag_outlier_lines(star_lines()[:3])

    def test_all_flagged(self):
        # four mutually inconsistent lines: no 3-subset agrees within threshold
        lines = star_lines(n=4, offsets=[0.0, 80.0, -90.0, 70.0])
        with pytest.raises(AllFlagged):
            flag_outlier_lines(lines, threshold_px=1.0)


def reference_loo_distances(lines):
    """Distance of each line to the least-squares intersection of the
    others, one bundle at a time (-inf where the others are near
    parallel): the math the stacked leave-one-out pass must reproduce bit
    for bit."""
    distances = []
    for i, candidate in enumerate(lines):
        rest = lines[:i] + lines[i + 1 :]
        normals = np.array([[pl.line.a, pl.line.b] for pl in rest])
        offsets = np.array([pl.line.c for pl in rest])
        nmat = normals.T @ normals
        cond = float(np.linalg.cond(nmat))
        if not math.isfinite(cond) or cond >= DEFAULT_CONDITION_LIMIT:
            distances.append(-math.inf)
            continue
        sol = np.linalg.solve(nmat, -normals.T @ offsets)
        distances.append(candidate.line.distance(Point2(sol[0], sol[1])))
    return np.array(distances)


class TestStackedLeaveOneOut:
    def test_outlier_bundle_matches_per_subset_loop(self):
        dataset = generate_dataset(SceneConfig.for_camera("cam2", rng_seed=54016, noise_sigma_px=0.5))
        checked = 0
        for views in dataset.cells.values():
            lines = [v.principal_line for v in views]
            # push one line 40 px off, as a corrupted view would
            bad = lines[3].line
            lines[3] = PrincipalLine.from_line(Line2(bad.a, bad.b, bad.c + 40.0), "outlier")
            while len(lines) >= 4:
                got = _loo_distances(lines)
                assert got.tobytes() == reference_loo_distances(lines).tobytes()
                lines.pop(int(np.argmax(got)))
                checked += 1
        assert checked == 28 * 5

    def test_parallel_subsets_match_per_subset_loop(self):
        # three parallel lines and one crossing line: leaving out the
        # crossing line leaves a parallel bundle that cannot judge it
        lines = [PrincipalLine.from_line(Line2(1.0, 0.0, -c), f"p{k}") for k, c in enumerate((10.0, 12.0, 30.0))]
        lines.append(PrincipalLine.from_line(Line2(0.0, 1.0, -5.0), "cross"))
        got = _loo_distances(lines)
        assert got[3] == -math.inf
        assert np.all(np.isfinite(got[:3]))
        assert got.tobytes() == reference_loo_distances(lines).tobytes()
        # a near-parallel pair among a star, with one line far off
        star = star_lines(offsets=[0.0] * 7 + [40.0])
        star.append(PrincipalLine.from_line(Line2(star[0].line.a, star[0].line.b, star[0].line.c + 3.0), "twin"))
        assert _loo_distances(star).tobytes() == reference_loo_distances(star).tobytes()

    def test_parallel_subset_does_not_stop_screening(self):
        lines = [PrincipalLine.from_line(Line2(1.0, 0.0, -c), f"p{k}") for k, c in enumerate((10.0, 12.0, 30.0))]
        lines.append(PrincipalLine.from_line(Line2(0.0, 1.0, -5.0), "cross"))
        inliers, outliers = flag_outlier_lines(lines, threshold_px=5.0)
        assert [pl.source_view for pl in outliers] == ["p2"]
        assert [pl.source_view for pl in inliers] == ["p0", "p1", "cross"]


class TestAmbiguousDirection:
    def test_synthetic_matrix(self):
        # Columns tuned so cross(h_a, h_b) has a vanishing image-plane
        # component while h7, h8 remain well above the perspective guard:
        # h_a = (1, 0, 1e-5), h_b = (1, 1e-6, 1e-5 + 1e-11) give
        # w1 = w2 = -1e-11 with perspective terms ~1e-5.
        eps = 1e-5
        m = np.array(
            [
                [1.0, 1.0, 0.0],
                [0.0, 1e-6, 0.0],
                [eps, eps + 1e-11, 1.0],
            ]
        )
        with pytest.raises(AmbiguousDirection):
            principal_line(Homography(m))
