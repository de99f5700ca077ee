"""Tests for the closed-form symmetry axis and principal-point estimation."""

import inspect
import math
import pkgutil

import numpy as np
import pytest

import caliblab
from caliblab.errors import (
    AllFlagged,
    AmbiguousDirection,
    DegenerateView,
    ParallelLines,
    TooFewLines,
)
from caliblab.principal_line import (
    DEFAULT_CONDITION_LIMIT,
    DIRECTION_EPS,
    PERSPECTIVE_EPS,
    _loo_distances,
    estimate_pp,
    flag_outlier_lines,
    principal_lines,
)
from caliblab.synth import SceneConfig, generate_dataset

from conftest import (
    canonical_homography,
    line_close,
    line_distance,
    only,
    oracle_rot_x,
    oracle_rot_z,
    scene_homography,
)


def tilted_homography(f=1000.0, pp=(500.0, 400.0), tilt=45.0, roll=0.0, dist=1000.0):
    rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
    return canonical_homography(scene_homography(f, pp, rot, np.array([0.0, 0.0, dist])))


def steepest_vanishing_point(h):
    """Image of the board's steepest-ascent direction (h7, h8) at infinity."""
    u, v, z = h @ np.array([h[2, 0], h[2, 1], 0.0])
    return u / z, v / z


def star_lines(center=(2000.0, 1500.0), n=8, offsets=None):
    """(n, 3) unit-normal lines through a common point at angles k * 180/n."""
    cu, cv = center
    lines = []
    for k in range(n):
        ang = math.radians(180.0 / n * k)
        a, b = math.sin(ang), -math.cos(ang)  # normal perpendicular to the direction
        c = -(a * cu + b * cv)
        if offsets is not None:
            c += offsets[k]
        lines.append((a, b, c))
    return np.array(lines)


class TestPrincipalLine:
    def test_pure_x_tilt_gives_vertical_line(self):
        h = tilted_homography()
        line = only(principal_lines(h[None]))
        assert line_close(line, (1.0, 0.0, -500.0), tol=1e-9)
        assert abs(line[1]) < 1e-12  # vertical
        u, v = steepest_vanishing_point(h)
        assert u == pytest.approx(500.0, abs=1e-9)
        assert v == pytest.approx(1400.0, abs=1e-9)

    def test_passes_through_pp(self):
        line = only(principal_lines(tilted_homography()[None]))
        assert line_distance(line, (500.0, 400.0)) < 1e-9 * 1000.0

    def test_fronto_parallel_raises(self):
        h = canonical_homography(scene_homography(1000.0, (500.0, 400.0), np.eye(3), [0.0, 0.0, 1000.0]))
        with pytest.raises(DegenerateView):
            only(principal_lines(h[None]))

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
        rolled = only(principal_lines(canonical_homography(g @ base)[None]))
        # the base line (1, 0, -500) rotated by 45 degrees about the pp
        expected = np.linalg.inv(g).T @ np.array([1.0, 0.0, -500.0])
        assert line_close(rolled, expected, tol=1e-9)
        assert line_distance(rolled, (500.0, 400.0)) < 1e-9 * 1000.0

    def test_incidence_over_random_poses(self, rng):
        scenes = []
        for _ in range(200):
            f = rng.uniform(800.0, 15000.0)
            pp = (rng.uniform(300.0, 4000.0), rng.uniform(300.0, 3000.0))
            tilt = rng.uniform(20.0, 70.0)
            roll = rng.uniform(0.0, 360.0)
            scenes.append((f, pp, tilted_homography(f, pp, tilt, roll)))
        lines, errors = principal_lines(np.array([h for _, _, h in scenes]))
        assert errors == [None] * 200
        for line, (f, pp, _) in zip(lines, scenes):
            assert line_distance(line, pp) < 1e-9 * f

    def test_direction_follows_board_normal(self, rng):
        # pure tilt about the image x axis keeps the axis vertical: its
        # normal (a, b) is horizontal
        tilts = rng.uniform(10.0, 80.0, size=20)
        lines, errors = principal_lines(np.array([tilted_homography(tilt=float(tilt)) for tilt in tilts]))
        assert errors == [None] * 20
        assert np.all(np.abs(lines[:, 1]) < 1e-9)

    def test_anchor_on_line_invariant(self):
        # the steepest-ascent vanishing point the line is built through
        h = tilted_homography(roll=123.0)
        line = only(principal_lines(h[None]))
        u, v = steepest_vanishing_point(h)
        assert line_distance(line, (u, v)) < 1e-9 * max(1.0, abs(u), abs(v))


def rms_residual(est):
    return math.sqrt(np.mean(np.square(est.per_line_residual)))


class TestEstimatePP:
    def test_perpendicular_pair(self):
        lines = np.array([[1.0, 0.0, -2000.0], [0.0, 1.0, -1500.0]])
        est = estimate_pp(lines)
        assert est.pp.u == pytest.approx(2000.0)
        assert est.pp.v == pytest.approx(1500.0)
        assert rms_residual(est) == pytest.approx(0.0, abs=1e-12)

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
        lines = np.array([[1.0, 0.0, -100.0], [1.0, 0.0, -200.0], [1.0, 1e-9, -300.0]])
        with pytest.raises(ParallelLines):
            estimate_pp(lines)

    @pytest.mark.parametrize("ratio", [0.99, 1.01])
    def test_condition_limit(self, ratio):
        # unit normals (1, 0) and (c, s) give the normal matrix eigenvalues
        # 1 +- |c|, so a condition (1 + c) / (1 - c) of ratio * the limit
        cond = ratio * DEFAULT_CONDITION_LIMIT
        c = (cond - 1.0) / (cond + 1.0)
        lines = np.array([[1.0, 0.0, -2000.0], [c, math.sqrt((1.0 - c) * (1.0 + c)), -1500.0]])
        assert np.linalg.cond(lines[:, :2].T @ lines[:, :2]) == pytest.approx(cond, rel=1e-6)
        if ratio > 1.0:
            with pytest.raises(ParallelLines):
                estimate_pp(lines)
        else:
            est = estimate_pp(lines)
            assert est.condition == pytest.approx(cond, rel=1e-6)
            assert rms_residual(est) == pytest.approx(0.0, abs=1e-6)

    def test_too_few(self):
        with pytest.raises(TooFewLines):
            estimate_pp(star_lines()[:1])

    def test_exact_minimizer(self, rng):
        lines = star_lines(offsets=rng.normal(0.0, 2.0, 8))
        est = estimate_pp(lines)

        def cost(u, v):
            return sum((a * u + b * v + c) ** 2 for a, b, c in lines)

        base = cost(est.pp.u, est.pp.v)
        for k in range(8):
            ang = math.radians(45.0 * k)
            du, dv = 1e-3 * math.cos(ang), 1e-3 * math.sin(ang)
            assert cost(est.pp.u + du, est.pp.v + dv) >= base - 1e-12 * max(base, 1.0)


class TestFlagOutliers:
    def test_concurrent_bundle_clean(self):
        inliers, outliers = flag_outlier_lines(star_lines(), threshold_px=5.0)
        assert outliers == []
        assert inliers == list(range(8))

    def test_single_offset_line_flagged(self):
        lines = star_lines(offsets=[0.0] * 7 + [40.0])
        inliers, outliers = flag_outlier_lines(lines, threshold_px=5.0)
        assert outliers == [7]
        est_all = estimate_pp(lines)
        est_in = estimate_pp(lines[inliers])
        assert rms_residual(est_in) <= rms_residual(est_all)

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
        rest = np.delete(lines, i, axis=0)
        normals = np.ascontiguousarray(rest[:, :2])
        offsets = np.ascontiguousarray(rest[:, 2])
        nmat = normals.T @ normals
        cond = float(np.linalg.cond(nmat))
        if not math.isfinite(cond) or cond >= DEFAULT_CONDITION_LIMIT:
            distances.append(-math.inf)
            continue
        sol = np.linalg.solve(nmat, -normals.T @ offsets)
        distances.append(line_distance(candidate, sol))
    return np.array(distances)


class TestStackedLeaveOneOut:
    def test_outlier_bundle_matches_per_subset_loop(self):
        dataset = generate_dataset(SceneConfig.for_camera("cam2", rng_seed=54016, noise_sigma_px=0.5))
        checked = 0
        for cell in dataset.cells.values():
            lines, _ = principal_lines(cell.h)
            # push one line 40 px off, as a corrupted view would
            lines[3, 2] += 40.0
            while len(lines) >= 4:
                got = _loo_distances(lines)
                assert got.tobytes() == reference_loo_distances(lines).tobytes()
                lines = np.delete(lines, int(np.argmax(got)), axis=0)
                checked += 1
        assert checked == 28 * 5

    def test_parallel_subsets_match_per_subset_loop(self):
        # three parallel lines and one crossing line: leaving out the
        # crossing line leaves a parallel bundle that cannot judge it
        lines = np.array([[1.0, 0.0, -10.0], [1.0, 0.0, -12.0], [1.0, 0.0, -30.0], [0.0, 1.0, -5.0]])
        got = _loo_distances(lines)
        assert got[3] == -math.inf
        assert np.all(np.isfinite(got[:3]))
        assert got.tobytes() == reference_loo_distances(lines).tobytes()
        # a near-parallel pair among a star, with one line far off
        star = star_lines(offsets=[0.0] * 7 + [40.0])
        star = np.vstack([star, star[0] + [0.0, 0.0, 3.0]])
        assert _loo_distances(star).tobytes() == reference_loo_distances(star).tobytes()

    def test_parallel_subset_does_not_stop_screening(self):
        lines = np.array([[1.0, 0.0, -10.0], [1.0, 0.0, -12.0], [1.0, 0.0, -30.0], [0.0, 1.0, -5.0]])
        inliers, outliers = flag_outlier_lines(lines, threshold_px=5.0)
        assert outliers == [2]
        assert inliers == [0, 1, 3]


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
            only(principal_lines(canonical_homography(m)[None]))


def perspective_at(ratio):
    """A tilted view whose h8 is set, and h7 zeroed, so that
    (h7^2 + h8^2) / |H|^2 = ratio * PERSPECTIVE_EPS."""
    h = tilted_homography().copy()
    h[2, 0] = h[2, 1] = 0.0
    rest = float(np.sum(h * h))
    h[2, 1] = math.sqrt(ratio * PERSPECTIVE_EPS * rest / (1.0 - ratio * PERSPECTIVE_EPS))
    return h


def direction_at(ratio, p=1e-3):
    """Columns h_a = (1, 0, p), h_b = (1, 0, p + eps) with eps chosen so
    that |(w1, w2)|^2 / (|h_a|^2 |h_b|^2) = ratio * DIRECTION_EPS, where
    w = h_a x h_b = (0, -eps, 0); the perspective terms stay near p^2."""
    eps = 0.0
    for _ in range(3):
        eps = math.sqrt(ratio * DIRECTION_EPS * (1.0 + p * p) * (1.0 + (p + eps) ** 2))
    return np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [p, p + eps, 1.0]])


class TestGateBoundaries:
    """One percent either side of PERSPECTIVE_EPS and DIRECTION_EPS: past
    the gate the view has no line, inside it the line is finite with a
    unit normal."""

    @pytest.mark.parametrize("ratio, error", [(0.99, DegenerateView), (1.01, None)])
    def test_perspective_gate(self, ratio, error):
        h = perspective_at(ratio)
        assert (h[2, 0] ** 2 + h[2, 1] ** 2) / (PERSPECTIVE_EPS * np.sum(h * h)) == pytest.approx(ratio, rel=1e-6)
        self.check(h, error)

    @pytest.mark.parametrize("ratio, error", [(0.99, AmbiguousDirection), (1.01, None)])
    def test_direction_gate(self, ratio, error):
        h = direction_at(ratio)
        w = np.cross(h[:, 0], h[:, 1])
        bound = DIRECTION_EPS * np.sum(h[:, 0] ** 2) * np.sum(h[:, 1] ** 2)
        assert (w[0] ** 2 + w[1] ** 2) / bound == pytest.approx(ratio, rel=1e-6)
        self.check(h, error)

    @staticmethod
    def check(h, error):
        # the gates are scale free, so h and its stored form agree
        for m in (h, canonical_homography(h)):
            (line,), (got,) = principal_lines(m[None])
            if error is None:
                assert got is None
                assert np.all(np.isfinite(line))
                assert math.hypot(line[0], line[1]) == pytest.approx(1.0, abs=1e-15)
            else:
                assert isinstance(got, error)
                assert np.all(np.isnan(line))


def test_package_exports_do_not_shadow_submodules():
    import caliblab.principal_line as module

    assert inspect.ismodule(module)
    submodules = {info.name for info in pkgutil.iter_modules(caliblab.__path__)}
    assert not submodules & set(caliblab.__all__)
