"""Tests for homography estimation and the projective primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caliblab.errors import DegenerateConfiguration
from caliblab.geometry import Point2, estimate_homographies
from caliblab.principal_line import principal_lines

from conftest import (
    build_cell,
    canonical_homography,
    grid_board,
    only,
    oracle_rot_x,
    oracle_rot_z,
    pinhole_project,
    scene_homography,
)


def unit_square():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def transfer_error(h, board, image):
    """Max residual of mapping board points forward (px) and image points
    backward (board units) through a homography h (3, 3)."""
    fwd = np.column_stack([board, np.ones(len(board))]) @ h.T
    back = np.column_stack([image, np.ones(len(image))]) @ np.linalg.inv(h).T
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
            build_cell(["v"], [bad], [board])
        with pytest.raises(ValueError):
            build_cell(["v"], [board], [bad])

    def test_line_unit_normal_and_sign(self):
        # rolls every 30 degrees turn the axis normal through every
        # quadrant; h and -h are the same map and give the same row
        hs = np.array(
            [
                scene_homography(1000.0, (500.0, 400.0), oracle_rot_z(roll) @ oracle_rot_x(40.0), [0.0, 0.0, 1000.0])
                for roll in range(0, 360, 30)
            ]
        )
        lines, errors = principal_lines(np.concatenate([hs, -hs]))
        assert errors == [None] * 24
        np.testing.assert_allclose(np.hypot(lines[:, 0], lines[:, 1]), 1.0, rtol=1e-15)
        assert np.all((lines[:, 0] > 0.0) | ((lines[:, 0] == 0.0) & (lines[:, 1] > 0.0)))
        np.testing.assert_array_equal(lines[:12], lines[12:])
        # roll 0 and roll 180 give the same vertical axis through u = 500
        np.testing.assert_allclose(lines[0], [1.0, 0.0, -500.0], atol=1e-9)
        np.testing.assert_allclose(lines[6], [1.0, 0.0, -500.0], atol=1e-9)

    def test_line_rejects_zero_normal(self):
        # perspective and direction both clear their gates, but the line's
        # coefficients h7^2 * (h7 * h_b1) underflow to zero
        zero_normal = np.array([[0.0, 2.3e-81, 0.0], [0.0, 0.0, 1e-81], [1e-81, 0.0, 0.0]])
        not_finite = np.full((3, 3), np.nan)
        lines, errors = principal_lines(np.array([zero_normal, not_finite]))
        for error in errors:
            assert isinstance(error, ValueError) and "(a, b) != 0" in str(error)
        assert np.all(np.isnan(lines))

    def test_homography_rejects_singular(self):
        # every corner maps onto the image line u = v: the exact solution
        # [[1, 1, 0], [1, 1, 0], [0, 0, 1]] is singular
        board = grid_board(3, 3, 1.0)
        image = np.repeat(board.sum(axis=1, keepdims=True), 2, axis=1)
        hs, errors = estimate_homographies(board[None], image[None])
        assert isinstance(errors[0], DegenerateConfiguration) and str(errors[0]) == "homography matrix is singular"
        assert np.all(np.isnan(hs[0]))

    def test_homography_canonical_sign(self):
        # h and -h are the same map; the estimate is the one with h9 > 0
        board = grid_board(5, 4, 25.0)
        rot, t = oracle_rot_z(200.0) @ oracle_rot_x(40.0), [0.0, 0.0, 900.0]
        maps = [np.eye(3), scene_homography(1000.0, (500.0, 400.0), rot, t)]
        images = [board, pinhole_project(1000.0, (500.0, 400.0), rot, t, board)]
        hs, errors = estimate_homographies(np.array([board, board]), np.array(images))
        assert errors == [None, None]
        for h, m in zip(hs, maps):
            assert h[2, 2] > 0.0
            np.testing.assert_allclose(h, canonical_homography(m), atol=1e-10)
            np.testing.assert_allclose(h, canonical_homography(-m), atol=1e-10)


class TestEstimateHomography:
    def test_identity_case(self):
        square = unit_square()
        est = only(estimate_homographies(square[None], square[None]))
        np.testing.assert_allclose(est, canonical_homography(np.eye(3)), atol=1e-12)

    def test_recovers_constructed_homography(self):
        # 9x6 grid seen through f=1000, pp=(500, 400), 45 degree tilt.
        board = grid_board()
        rot = oracle_rot_x(45.0)
        t = np.array([0.0, 0.0, 1000.0])
        image = pinhole_project(1000.0, (500.0, 400.0), rot, t, board)
        est = only(estimate_homographies(board[None], image[None]))
        expected = canonical_homography(scene_homography(1000.0, (500.0, 400.0), rot, t))
        np.testing.assert_allclose(est, expected, rtol=1e-8, atol=1e-8 * np.abs(expected).max())

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
        composed = canonical_homography(sim @ base)
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
        rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
        t = dist * np.array([0.0, 0.0, 1.0]) - rot @ np.array([center[0], center[1], 0.0])
        image = pinhole_project(f, pp, rot, t, board)
        est = only(estimate_homographies(board[None], image[None]))
        expected = canonical_homography(scene_homography(f, pp, rot, t))
        assert np.abs(est - expected).max() < 1e-8
        assert transfer_error(est, board, image) < 1e-8

    @settings(max_examples=50, deadline=None)
    @given(scenes())
    def test_canonical_form(self, scene):
        f, pp, tilt, roll, dist = scene
        board = grid_board(5, 4, 25.0)
        center = board.mean(axis=0)
        rot = oracle_rot_z(roll) @ oracle_rot_x(tilt)
        t = dist * np.array([0.0, 0.0, 1.0]) - rot @ np.array([center[0], center[1], 0.0])
        image = pinhole_project(f, pp, rot, t, board)
        est = only(estimate_homographies(board[None], image[None]))
        assert abs(np.linalg.norm(est) - 1.0) <= 1e-12
        pivots = [est[2, 2], est[2, 0], est[2, 1]]
        first = next(p for p in pivots if p != 0.0)
        assert first > 0.0
