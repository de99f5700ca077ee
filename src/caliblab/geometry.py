"""Projective-geometry primitives: image points and planar homographies.

Convention throughout: the homography H maps board-plane coordinates
(x, y, 1) to image pixels (u, v, 1) up to scale. Matrices are stored with
Frobenius norm 1 and a canonical sign (h9 >= 0, ties broken by the first
nonzero of h7, h8), which makes equal maps compare entrywise equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration
from .rotations import vector_norm

# The DLT solution is unique only while the second-smallest singular value
# of the (normalized) design matrix stays well above roundoff.
DLT_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Point2:
    """Image point in pixels."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"image point must be finite, got ({self.u}, {self.v})")


def _normalize_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Similarity that moves the centroid of each (..., n, 2) point set to
    the origin and its mean distance to sqrt(2). Returns the transformed
    points, the (..., 3, 3) transforms and two (...) masks of the sets that
    have no such similarity: those whose points all coincide and those
    whose spread overflows. Such a set gets the identity as a placeholder
    transform and zeros as its points."""
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = pts.mean(axis=-2)
        d = np.sqrt(((pts - centroid[..., None, :]) ** 2).sum(axis=-1)).mean(axis=-1)
    overflow = ~np.isfinite(d)
    coincide = d <= 1e-12
    placeholder = overflow | coincide
    centroid[placeholder] = 0.0
    s = math.sqrt(2.0) / np.where(placeholder, 1.0, d)
    t = np.zeros(d.shape + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * centroid
    t[..., 2, 2] = 1.0
    normalized = np.where(placeholder[..., None, None], 0.0, (pts - centroid[..., None, :]) * s[..., None, None])
    return normalized, t, coincide, overflow


def estimate_homographies(board_xy: np.ndarray, image_uv: np.ndarray) -> tuple[np.ndarray, list[Exception | None]]:
    """Direct linear transform with isotropic normalization of both point
    sets (Hartley 1997), for a stack of V views with n corners each.

    Takes matching (V, n, 2) arrays of finite board and image points.
    Builds each view's 2n x 9 design matrix from normalized coordinates,
    takes the right singular vector of the smallest singular value,
    denormalizes, and scales to Frobenius norm 1 with the canonical sign,
    all as stacked array operations. Returns the (V, 3, 3) homographies
    and, aligned with them, the error of each view that has none (its
    matrix is NaN): DegenerateConfiguration when fewer than four point
    pairs are given, the points of either set coincide or spread too far
    to normalize, the design matrix is rank deficient (collinear or
    duplicated board points), or the matrix is zero or singular;
    ValueError when it is not finite.
    """
    board = np.asarray(board_xy, dtype=float)
    image = np.asarray(image_uv, dtype=float)
    count, n = board.shape[:2]
    if n < 4:
        error = DegenerateConfiguration(f"need at least 4 point pairs, got {n}")
        return np.full((count, 3, 3), np.nan), [error] * count
    bn, tb, board_coincide, board_overflow = _normalize_points(board)
    qn, tq, image_coincide, image_overflow = _normalize_points(image)

    x, y = bn[..., 0], bn[..., 1]
    u, v = qn[..., 0], qn[..., 1]
    zeros = np.zeros(x.shape)
    ones = np.ones(x.shape)
    design = np.empty((count, 2 * n, 9))
    design[:, 0::2] = np.stack([-x, -y, -ones, zeros, zeros, zeros, u * x, u * y, u], axis=-1)
    design[:, 1::2] = np.stack([zeros, zeros, zeros, -x, -y, -ones, v * x, v * y, v], axis=-1)

    # With four corners (2n = 8 rows) only the full SVD holds a null vector.
    _, sing, vt = np.linalg.svd(design, full_matrices=2 * n < 9)
    rank_deficient = sing[:, 7] <= DLT_RANK_RTOL * sing[:, 0]
    raw = np.linalg.inv(tq) @ vt[:, -1].reshape(count, 3, 3) @ tb

    finite = np.all(np.isfinite(raw), axis=(1, 2))
    raw[~finite] = 0.0
    with np.errstate(over="ignore"):  # an overflowing norm scales h to zero, which is singular
        norm = vector_norm(raw.reshape(count, 9))
    zero = norm == 0.0
    hs = raw / np.where(zero, 1.0, norm)[:, None, None]
    # Measure the determinant against Hadamard's bound, the product of the
    # column norms: the translation column of a plane homography can dwarf
    # the other two, which gives a regular matrix a tiny determinant
    # (f = 500 px with the board at 3 m is one such view).
    singular = np.abs(np.linalg.det(hs)) <= 1e-12 * np.prod(vector_norm(np.swapaxes(hs, 1, 2)), axis=-1)
    h33, h31, h32 = hs[:, 2, 2], hs[:, 2, 0], hs[:, 2, 1]
    pivot = np.where(h33 != 0.0, h33, np.where(h31 != 0.0, h31, h32))
    hs = np.where((pivot < 0.0)[:, None, None], -hs, hs)

    errors: list[Exception | None] = [None] * count
    for i in range(count):
        if board_overflow[i] or image_overflow[i]:
            errors[i] = DegenerateConfiguration("point coordinates spread too far to normalize")
        elif board_coincide[i] or image_coincide[i]:
            errors[i] = DegenerateConfiguration("all points coincide")
        elif rank_deficient[i]:
            errors[i] = DegenerateConfiguration(
                "design matrix is rank deficient (collinear or duplicated board points)"
            )
        elif not finite[i]:
            errors[i] = ValueError("homography must be a finite 3x3 matrix")
        elif zero[i]:
            errors[i] = DegenerateConfiguration("zero homography matrix")
        elif singular[i]:
            errors[i] = DegenerateConfiguration("homography matrix is singular")
        if errors[i] is not None:
            hs[i] = np.nan
    return hs, errors
