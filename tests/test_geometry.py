"""Tests for homography estimation and the projective primitives."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caliblab.calibrate import views_from_points
from caliblab.errors import DegenerateConfiguration
from caliblab.geometry import Homography, Line2, Point2, estimate_homographies

from conftest import grid_board, only, oracle_rot_x, pinhole_project, scene_homography


def unit_square():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def transfer_error(homography, board, image):
    """Max residual of mapping board points forward (px) and image points
    backward (board units) through a homography."""
    fwd = np.column_stack([board, np.ones(len(board))]) @ homography.h.T
    back = np.column_stack([image, np.ones(len(image))]) @ np.linalg.inv(homography.h).T
    both = np.vstack([fwd[:, :2] / fwd[:, 2:] - image, back[:, :2] / back[:, 2:] - board])
    return float(np.hypot(both[:, 0], both[:, 1]).max())


class TestTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)
        board = unit_square()
        bad = board.copy()
        bad[2, 1] = float("inf")
        with pytest.raises(ValueError):
            only(views_from_points(["v"], [bad], [board]))
        with pytest.raises(ValueError):
            only(views_from_points(["v"], [board], [bad]))

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
        est = only(estimate_homographies(square[None], square[None]))
        np.testing.assert_allclose(est.h, Homography(np.eye(3)).h, atol=1e-12)

    def test_recovers_constructed_homography(self):
        # 9x6 grid seen through f=1000, pp=(500, 400), 45 degree tilt.
        board = grid_board()
        rot = oracle_rot_x(45.0)
        t = np.array([0.0, 0.0, 1000.0])
        image = pinhole_project(1000.0, (500.0, 400.0), rot, t, board)
        est = only(estimate_homographies(board[None], image[None]))
        expected = Homography(scene_homography(1000.0, (500.0, 400.0), rot, t))
        np.testing.assert_allclose(est.h, expected.h, rtol=1e-8, atol=1e-8 * np.abs(expected.h).max())

    def test_collinear_points_degenerate(self):
        board = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(DegenerateConfiguration):
            only(estimate_homographies(board[None], board[None]))

    def test_too_few_points(self):
        board = unit_square()[:3]
        with pytest.raises(DegenerateConfiguration):
            only(estimate_homographies(board[None], board[None]))

    def test_duplicate_points_degenerate(self):
        board = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateConfiguration):
            only(estimate_homographies(board[None], board[None]))

    def test_normalization_invariance(self):
        board = grid_board(5, 4, 30.0)
        rot = oracle_rot_x(35.0)
        t = np.array([10.0, -20.0, 900.0])
        image = pinhole_project(1200.0, (600.0, 450.0), rot, t, board)
        base = only(estimate_homographies(board[None], image[None]))

        s, dx, dy = 3.5, 120.0, -40.0
        moved = image * s + np.array([dx, dy])
        est = only(estimate_homographies(board[None], moved[None]))
        sim = np.array([[s, 0.0, dx], [0.0, s, dy], [0.0, 0.0, 1.0]])
        composed = Homography(sim @ base.h)
        assert transfer_error(composed, board, moved) < 1e-8
        assert transfer_error(est, board, moved) < 1e-8


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
    # A regular homography whose determinant is below 1e-12 once normalized.
    @example((500.0, (200.0, 1935.0), 75.0, 239.0, 3000.0))
    def test_round_trip_recovery(self, scene):
        f, pp, tilt, roll, dist = scene
        board = grid_board(5, 4, 25.0)
        center = board.mean(axis=0)
        from conftest import oracle_rot_z

        rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
        t = dist * np.array([0.0, 0.0, 1.0]) - rot @ np.array([center[0], center[1], 0.0])
        image = pinhole_project(f, pp, rot, t, board)
        est = only(estimate_homographies(board[None], image[None]))
        expected = Homography(scene_homography(f, pp, rot, t))
        assert np.abs(est.h - expected.h).max() < 1e-8
        assert transfer_error(est, board, image) < 1e-8

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
        est = only(estimate_homographies(board[None], image[None]))
        assert abs(np.linalg.norm(est.h) - 1.0) <= 1e-12
        pivots = [est.h[2, 2], est.h[2, 0], est.h[2, 1]]
        first = next(p for p in pivots if p != 0.0)
        assert first > 0.0
