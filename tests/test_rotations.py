"""Tests for the rotation utilities."""

import numpy as np
import pytest

from caliblab.rotations import (
    nearest_rotation,
    rodrigues,
    rot_x,
    rot_y,
    rot_z,
    rvec_from_rotation,
    skew,
)


def random_rotation(rng):
    return nearest_rotation(rng.normal(size=(3, 3)))


class TestAxisAngle:
    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rot = random_rotation(rng)
            back = rodrigues(rvec_from_rotation(rot))
            np.testing.assert_allclose(back, rot, atol=1e-12)

    def test_round_trip_near_pi(self):
        rot = rot_z(180.0) @ rot_x(45.0)
        back = rodrigues(rvec_from_rotation(rot))
        np.testing.assert_allclose(back, rot, atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(rvec_from_rotation(np.eye(3)), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(rodrigues(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_angle_in_upper_range_is_canonical(self):
        rvec = rvec_from_rotation(rot_x(170.0))
        assert np.linalg.norm(rvec) <= np.pi + 1e-12


class TestNearestRotation:
    def test_projects_noisy_matrix(self):
        rng = np.random.default_rng(9)
        rot = random_rotation(rng)
        noisy = rot + rng.normal(0.0, 0.05, (3, 3))
        proj = nearest_rotation(noisy)
        np.testing.assert_allclose(proj.T @ proj, np.eye(3), atol=1e-12)
        assert np.linalg.det(proj) == pytest.approx(1.0)
        # closer than the input and than a few random rotations
        for _ in range(10):
            other = random_rotation(rng)
            assert np.linalg.norm(noisy - proj) <= np.linalg.norm(noisy - other) + 1e-12

    def test_fixes_reflections(self):
        refl = np.diag([1.0, 1.0, -1.0])
        proj = nearest_rotation(refl)
        assert np.linalg.det(proj) == pytest.approx(1.0)


class TestSkew:
    @pytest.mark.parametrize("shape", [(3,), (128, 3), (128, 1, 3)])
    def test_matches_cross_product(self, shape):
        rng = np.random.default_rng(3)
        v, w = rng.normal(size=shape), rng.normal(size=shape)
        np.testing.assert_allclose((skew(v) @ w[..., None])[..., 0], np.cross(v, w), rtol=0.0, atol=1e-13)


class TestLeftPerturbation:
    def test_matches_central_differences(self):
        # the pose refits step a rotation as R <- rodrigues(delta) @ R, so
        # d(R p)/d(delta) at delta = 0 is -skew(R p) for every R
        rng = np.random.default_rng(11)
        for _ in range(10):
            rot = random_rotation(rng)
            pts = rng.normal(0.0, 100.0, (5, 3))
            h = 1e-6
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = h
                fd = (pts @ (rodrigues(dp) @ rot).T - pts @ (rodrigues(-dp) @ rot).T) / (2 * h)
                expected = -skew(pts @ rot.T)[:, :, i]
                np.testing.assert_allclose(expected, fd, atol=1e-5 * max(1.0, np.abs(fd).max()))
