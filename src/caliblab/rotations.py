"""Rotation helpers: elementary rotations, the axis-angle exponential map
and the nearest rotation."""

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


def rodrigues(omega) -> np.ndarray:
    """Axis-angle vector to rotation matrix (exponential map); a (..., 3)
    stack maps to a (..., 3, 3) stack."""
    omega = np.asarray(omega, dtype=float)
    theta = vector_norm(omega)[..., None, None]
    small = theta < 1e-12
    km = skew(omega / np.where(small, 1.0, theta)[..., 0])
    rot = np.eye(3) + np.sin(theta) * km + (1.0 - np.cos(theta)) * (km @ km)
    return np.where(small, np.eye(3) + skew(omega), rot)


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of m with determinant +1; works on (..., 3, 3)
    stacks."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    r = u @ vt
    flip = np.linalg.det(r) < 0.0
    if np.any(flip):
        r = np.where(flip[..., None, None], (u * [1.0, 1.0, -1.0]) @ vt, r)
    return r
