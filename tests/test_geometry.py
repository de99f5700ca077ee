"""Tests for homography estimation and the projective primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caliblab.calibrate import CalibrationView
from caliblab.errors import DegenerateConfiguration, PointAtInfinity
from caliblab.geometry import (
    Homography,
    Line2,
    Point2,
    estimate_homography,
    symmetric_transfer_error,
)

from conftest import grid_board, oracle_rot_x, pinhole_project, scene_homography


def unit_square():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
        board = unit_square()
        bad = board.copy()
        bad[2, 1] = float("inf")
        with pytest.raises(ValueError):
            CalibrationView.from_points("v", bad, board)
        with pytest.raises(ValueError):
            CalibrationView.from_points("v", board, bad)

    def test_line_unit_normal_and_sign(self):
        line = Line2(-2.0, 0.0, 10.0)
        assert line.a == pytest.approx(1.0)
        assert line.b == 0.0
        assert line.c == pytest.approx(-5.0)
        assert math.hypot(line.a, line.b) == pytest.approx(1.0)

    def test_line_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Line2(0.0, 0.0, 1.0)

    def test_homography_rejects_singular(self):
        m = np.ones((3, 3))
        with pytest.raises(DegenerateConfiguration):
            Homography(m)

    def test_homography_canonical_sign(self):
        h1 = Homography(np.eye(3))
        h2 = Homography(-np.eye(3))
        np.testing.assert_array_equal(h1.h, h2.h)
        assert h1.h[2, 2] > 0


class TestEstimateHomography:
    def test_identity_case(self):
        square = unit_square()
        est = estimate_homography(square, square)
        np.testing.assert_allclose(est.h, Homography(np.eye(3)).h, atol=1e-12)

    def test_recovers_constructed_homography(self):
        # 9x6 grid seen through f=1000, pp=(500, 400), 45 degree tilt.
        board = grid_board()
        rot = oracle_rot_x(45.0)
        t = np.array([0.0, 0.0, 1000.0])
        image = pinhole_project(1000.0, (500.0, 400.0), rot, t, board)
        est = estimate_homography(board, image)
        expected = Homography(scene_homography(1000.0, (500.0, 400.0), rot, t))
        np.testing.assert_allclose(est.h, expected.h, rtol=1e-8, atol=1e-8 * np.abs(expected.h).max())

    def test_collinear_points_degenerate(self):
        board = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(board, board)

    def test_too_few_points(self):
        board = unit_square()[:3]
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(board, board)

    def test_duplicate_points_degenerate(self):
        board = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateConfiguration):
            estimate_homography(board, board)

    def test_normalization_invariance(self):
        board = grid_board(5, 4, 30.0)
        rot = oracle_rot_x(35.0)
        t = np.array([10.0, -20.0, 900.0])
        image = pinhole_project(1200.0, (600.0, 450.0), rot, t, board)
        base = estimate_homography(board, image)

        s, dx, dy = 3.5, 120.0, -40.0
        moved = image * s + np.array([dx, dy])
        est = estimate_homography(board, moved)
        sim = np.array([[s, 0.0, dx], [0.0, s, dy], [0.0, 0.0, 1.0]])
        composed = Homography(sim @ base.h)
        assert symmetric_transfer_error(composed, board, moved) < 1e-8
        assert symmetric_transfer_error(est, board, moved) < 1e-8


class TestApplyHomography:
    """Board points mapped through a homography, observed through
    symmetric_transfer_error."""

    def test_identity(self):
        pts = np.array([[3.0, 7.0], [-2.0, 5.0], [0.0, 0.0]])
        assert symmetric_transfer_error(Homography(np.eye(3)), pts, pts) < 1e-12
        assert symmetric_transfer_error(Homography(np.eye(3)), pts, pts + [0.0, 0.5]) == pytest.approx(0.5)

    def test_matches_pinhole_projection(self):
        rot = oracle_rot_x(45.0)
        t = np.array([0.0, 0.0, 1000.0])
        h = Homography(scene_homography(1000.0, (500.0, 400.0), rot, t))
        board = grid_board(5, 4, 25.0)
        image = pinhole_project(1000.0, (500.0, 400.0), rot, t, board)
        np.testing.assert_allclose(image[0], [500.0, 400.0])
        assert symmetric_transfer_error(h, board, image) < 1e-9

    def test_point_at_infinity(self):
        # cyclic permutation matrix: third row (1, 0, 0), so w = x
        h = Homography(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        board = np.array([[1.0, 2.0], [0.0, 5.0]])
        with pytest.raises(PointAtInfinity):
            symmetric_transfer_error(h, board, board)


@st.composite
def scenes(draw):
    f = draw(st.floats(500.0, 8000.0))
    u0 = draw(st.floats(200.0, 2000.0))
    v0 = draw(st.floats(200.0, 2000.0))
    tilt = draw(st.floats(15.0, 75.0))
    roll = draw(st.floats(0.0, 360.0))
    dist = draw(st.floats(400.0, 3000.0))
    return f, (u0, v0), tilt, roll, dist


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(scenes())
    def test_round_trip_recovery(self, scene):
        f, pp, tilt, roll, dist = scene
        board = grid_board(5, 4, 25.0)
        center = board.mean(axis=0)
        from conftest import oracle_rot_z

        rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
        t = dist * np.array([0.0, 0.0, 1.0]) - rot @ np.array([center[0], center[1], 0.0])
        image = pinhole_project(f, pp, rot, t, board)
        est = estimate_homography(board, image)
        expected = Homography(scene_homography(f, pp, rot, t))
        assert np.abs(est.h - expected.h).max() < 1e-8
        assert symmetric_transfer_error(est, board, image) < 1e-8

    @settings(max_examples=50, deadline=None)
    @given(scenes())
    def test_canonical_form(self, scene):
        f, pp, tilt, roll, dist = scene
        board = grid_board(5, 4, 25.0)
        center = board.mean(axis=0)
        from conftest import oracle_rot_z

        rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
        t = dist * np.array([0.0, 0.0, 1.0]) - rot @ np.array([center[0], center[1], 0.0])
        image = pinhole_project(f, pp, rot, t, board)
        est = estimate_homography(board, image)
        assert abs(np.linalg.norm(est.h) - 1.0) <= 1e-12
        pivots = [est.h[2, 2], est.h[2, 0], est.h[2, 1]]
        first = next(p for p in pivots if p != 0.0)
        assert first > 0.0
