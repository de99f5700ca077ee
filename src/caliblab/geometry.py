"""Projective-geometry primitives: points, lines, planar homographies.

Convention throughout: the homography H maps board-plane coordinates
(x, y, 1) to image pixels (u, v, 1) up to scale. Matrices are stored with
Frobenius norm 1 and a canonical sign (h9 >= 0, ties broken by the first
nonzero of h7, h8), which makes equal maps compare entrywise equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, PointAtInfinity

# The DLT solution is unique only while the second-smallest singular value
# of the (normalized) design matrix stays well above roundoff.
DLT_RANK_RTOL = 1e-10

# |h7*x + h8*y + h9| at or below this counts as the line at infinity.
W_EPS = 1e-12


@dataclass(frozen=True)
class Point2:
    """Image point in pixels."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"image point must be finite, got ({self.u}, {self.v})")

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v])


@dataclass(frozen=True)
class Line2:
    """Image line a*u + b*v + c = 0 with unit normal (a, b).

    Stored sign-canonical (a > 0, or a == 0 and b > 0) so that identical
    lines have identical coefficients.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        norm = math.hypot(self.a, self.b)
        if norm == 0.0 or not math.isfinite(norm) or not math.isfinite(self.c):
            raise ValueError("line coefficients must be finite with (a, b) != 0")
        a, b, c = self.a / norm, self.b / norm, self.c / norm
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def signed_distance(self, p: Point2) -> float:
        return self.a * p.u + self.b * p.v + self.c

    def distance(self, p: Point2) -> float:
        return abs(self.signed_distance(p))


@dataclass(frozen=True, eq=False)
class Homography:
    """3x3 plane-to-image projective map, canonicalized on construction."""

    h: np.ndarray

    def __post_init__(self):
        m = np.array(self.h, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValueError("homography must be a finite 3x3 matrix")
        norm = float(np.linalg.norm(m))
        if norm == 0.0:
            raise DegenerateConfiguration("zero homography matrix")
        m = m / norm
        # Measure the determinant against Hadamard's bound, the product of
        # the column norms: the translation column of a plane homography
        # can dwarf the other two, which gives a regular matrix a tiny
        # determinant (f = 500 px with the board at 3 m is one such view).
        if abs(np.linalg.det(m)) <= 1e-12 * math.prod(map(math.hypot, *m)):
            raise DegenerateConfiguration("homography matrix is singular")
        for pivot in (m[2, 2], m[2, 0], m[2, 1]):
            if pivot != 0.0:
                if pivot < 0.0:
                    m = -m
                break
        m.setflags(write=False)
        object.__setattr__(self, "h", m)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    def inverse(self) -> "Homography":
        return Homography(np.linalg.inv(self.h))


def _map_points(matrix: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Map (n, 2) points through a 3x3 projective matrix. Raises
    PointAtInfinity when a denominator h7*x + h8*y + h9 vanishes."""
    w = pts @ matrix[2, :2] + matrix[2, 2]
    at_infinity = np.flatnonzero(np.abs(w) <= W_EPS)
    if at_infinity.size:
        x, y = pts[at_infinity[0]]
        raise PointAtInfinity(f"point ({x}, {y}) maps to infinity (w = {w[at_infinity[0]]:.3e})")
    return (pts @ matrix[:2, :2].T + matrix[:2, 2]) / w[:, None]


def _normalize_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Similarity that moves the centroid of each (..., n, 2) point set to
    the origin and its mean distance to sqrt(2). Returns the transformed
    points, the (..., 3, 3) transforms and the (...) mask of the sets whose
    points all coincide, which have no such similarity (their transform is
    a placeholder)."""
    centroid = pts.mean(axis=-2)
    d = np.sqrt(((pts - centroid[..., None, :]) ** 2).sum(axis=-1)).mean(axis=-1)
    coincide = d <= 1e-12
    s = math.sqrt(2.0) / np.where(coincide, 1.0, d)
    t = np.zeros(d.shape + (3, 3))
    t[..., 0, 0] = t[..., 1, 1] = s
    t[..., :2, 2] = -s[..., None] * centroid
    t[..., 2, 2] = 1.0
    return (pts - centroid[..., None, :]) * s[..., None, None], t, coincide


def estimate_homographies(
    board_xy: np.ndarray, image_uv: np.ndarray
) -> tuple[list[Homography | None], list[Exception | None]]:
    """Direct linear transform with isotropic normalization of both point
    sets (Hartley 1997), for a stack of V views with n corners each.

    Takes matching (V, n, 2) arrays of finite board and image points.
    Builds each view's 2n x 9 design matrix from normalized coordinates,
    takes the right singular vector of the smallest singular value, and
    denormalizes, all as stacked array operations. Returns the
    homographies and, aligned with them, the error of each view that has
    none: DegenerateConfiguration when fewer than four point pairs are
    given, the points of either set coincide, or the design matrix is rank
    deficient (collinear or duplicated board points).
    """
    board = np.asarray(board_xy, dtype=float)
    image = np.asarray(image_uv, dtype=float)
    count, n = board.shape[:2]
    if n < 4:
        error = DegenerateConfiguration(f"need at least 4 point pairs, got {n}")
        return [None] * count, [error] * count
    bn, tb, board_coincide = _normalize_points(board)
    qn, tq, image_coincide = _normalize_points(image)

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

    homographies: list[Homography | None] = [None] * count
    errors: list[Exception | None] = [None] * count
    for i in range(count):
        if board_coincide[i] or image_coincide[i]:
            errors[i] = DegenerateConfiguration("all points coincide")
        elif rank_deficient[i]:
            errors[i] = DegenerateConfiguration(
                "design matrix is rank deficient (collinear or duplicated board points)"
            )
        else:
            try:
                homographies[i] = Homography(raw[i])
            except (ValueError, DegenerateConfiguration) as err:
                errors[i] = err
    return homographies, errors


def estimate_homography(board_xy: np.ndarray, image_uv: np.ndarray) -> Homography:
    """`estimate_homographies` for one view: matching (n, 2) arrays of
    finite board and image points. Raises DegenerateConfiguration."""
    homographies, errors = estimate_homographies(
        np.asarray(board_xy, dtype=float)[None], np.asarray(image_uv, dtype=float)[None]
    )
    if errors[0] is not None:
        raise errors[0]
    return homographies[0]


def symmetric_transfer_error(homography: Homography, board_xy: np.ndarray, image_uv: np.ndarray) -> float:
    """Max residual of mapping board points forward (px) and image points
    backward (board units) through the homography. Raises PointAtInfinity
    when a point maps onto the line at infinity either way."""
    board = np.asarray(board_xy, dtype=float)
    image = np.asarray(image_uv, dtype=float)
    forward = _map_points(homography.h, board) - image
    backward = _map_points(np.linalg.inv(homography.h), image) - board
    both = np.vstack([forward, backward])
    return float(np.hypot(both[:, 0], both[:, 1]).max(initial=0.0))
