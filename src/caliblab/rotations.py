"""Rotation helpers: axis-angle maps and the nearest rotation."""

from __future__ import annotations

import math

import numpy as np


def rot_x(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def skew(v) -> np.ndarray:
    """Cross-product matrix of a 3-vector; a (..., 3) stack maps to a
    (..., 3, 3) stack."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def vector_norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, bit for bit equal to
    np.linalg.norm of each vector (both reduce through a BLAS dot, which a
    plain sum of squares does not reproduce)."""
    v = np.asarray(v, dtype=float)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def rodrigues(rvec) -> np.ndarray:
    """Axis-angle vector to rotation matrix (exponential map); a (..., 3)
    stack maps to a (..., 3, 3) stack."""
    rvec = np.asarray(rvec, dtype=float)
    theta = vector_norm(rvec)[..., None, None]
    small = theta < 1e-12
    km = skew(rvec / np.where(small, 1.0, theta)[..., 0])
    rot = np.eye(3) + np.sin(theta) * km + (1.0 - np.cos(theta)) * (km @ km)
    return np.where(small, np.eye(3) + skew(rvec), rot)


_atan2 = np.frompyfunc(math.atan2, 2, 1)


def rvec_from_rotation(rot: np.ndarray) -> np.ndarray:
    """Rotation matrix to axis-angle, stable near 0 and pi; a (..., 3, 3)
    stack maps to a (..., 3) stack.

    Goes through the quaternion with the largest-pivot extraction and a
    canonical nonnegative scalar part, so the returned vector has angle in
    [0, pi] and is a deterministic function of the input. The angle comes
    from libm's atan2 (numpy's vectorized arctan2 differs in the last
    bit), so serialized axis-angle vectors do not depend on batch size.
    """
    r = np.asarray(rot, dtype=float)
    r00, r11, r22 = r[..., 0, 0], r[..., 1, 1], r[..., 2, 2]
    d21 = r[..., 2, 1] - r[..., 1, 2]
    d02 = r[..., 0, 2] - r[..., 2, 0]
    d10 = r[..., 1, 0] - r[..., 0, 1]
    s01 = r[..., 0, 1] + r[..., 1, 0]
    s02 = r[..., 0, 2] + r[..., 2, 0]
    s12 = r[..., 1, 2] + r[..., 2, 1]
    # pivot: 0 = scalar part, 1..3 = the largest diagonal entry
    pivot = np.select(
        [r00 + r11 + r22 > np.maximum(np.maximum(r00, r11), r22), (r00 >= r11) & (r00 >= r22), r11 >= r22],
        [0, 1, 2],
        3,
    )
    arg = np.choose(pivot, [r00 + r11 + r22 + 1.0, 1.0 + r00 - r11 - r22, 1.0 + r11 - r00 - r22, 1.0 + r22 - r00 - r11])
    s = np.sqrt(arg) * 2.0
    quarter = 0.25 * s
    q = np.choose(
        pivot[..., None],
        [
            np.stack([quarter, d21 / s, d02 / s, d10 / s], axis=-1),
            np.stack([d21 / s, quarter, s01 / s, s02 / s], axis=-1),
            np.stack([d02 / s, s01 / s, quarter, s12 / s], axis=-1),
            np.stack([d10 / s, s02 / s, s12 / s, quarter], axis=-1),
        ],
    )
    q = q / vector_norm(q)[..., None]
    q = np.where(q[..., :1] < 0.0, -q, q)
    axis_norm = vector_norm(q[..., 1:])
    small = axis_norm < 1e-12
    theta = 2.0 * np.asarray(_atan2(axis_norm, q[..., 0]), dtype=float)
    return np.where(small[..., None], 0.0, q[..., 1:] / np.where(small, 1.0, axis_norm)[..., None] * theta[..., None])


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of m with determinant +1; works on (..., 3, 3)
    stacks."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    r = u @ vt
    flip = np.linalg.det(r) < 0.0
    if np.any(flip):
        r = np.where(flip[..., None, None], (u * [1.0, 1.0, -1.0]) @ vt, r)
    return r
