"""Closed-form symmetry axis of a projected board and the principal point
as the least-squares intersection of those axes.

For H = K [r1 r2 t] with square pixels and zero skew, the projected board
has an axis of symmetry that passes through the principal point. Writing
h_a, h_b for the first two columns of H, the axis direction equals the
image-plane component (w1, w2) of the board normal, where
w = cross(h_a, h_b) is the vanishing line of the board plane, and the
vanishing point H (h7, h8, 0)^T of the board's steepest-ascent direction
lies on the axis. Both facts hold exactly for any such H and are verified
against forward-constructed homographies in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllFlagged, AmbiguousDirection, DegenerateView, ParallelLines, TooFewLines
from .geometry import Point2

# Guard against the fronto-parallel case, where h7 = h8 = 0 up to DLT
# roundoff. With Frobenius-normalized storage, genuine perspective keeps
# (h7^2 + h8^2) above ~1e-14 while roundoff sits below ~1e-26, so the
# threshold separates the two regimes by many orders of magnitude.
PERSPECTIVE_EPS = 1e-20

# Same idea for the axis direction, measured against its natural bound
# |w| <= |h_a| * |h_b|.
DIRECTION_EPS = 1e-20

DEFAULT_CONDITION_LIMIT = 1e8
DEFAULT_OUTLIER_THRESHOLD_PX = 5.0

# libm's hypot, elementwise: np.hypot rounds some pairs differently
_hypot = np.frompyfunc(math.hypot, 2, 1)


@dataclass(frozen=True)
class PPEstimate:
    """Least-squares intersection of a line bundle."""

    pp: Point2
    rms_residual: float
    per_line_residual: tuple[float, ...]
    condition: float


def principal_lines(hs: np.ndarray) -> tuple[np.ndarray, list[Exception | None]]:
    """Closed-form symmetry axes of a stack of homographies (V, 3, 3).

    Returns the (V, 3) lines, row i the coefficients (a, b, c) of
    a*u + b*v + c = 0 with unit normal (a, b) and canonical sign (a > 0,
    or a == 0 and b > 0), and, aligned with them, the error of each view
    that has none (its row is NaN): DegenerateView for a fronto-parallel
    board (h7 = h8 = 0, no perspective), AmbiguousDirection when the
    in-image component of the board normal vanishes, and ValueError when
    the coefficients are not finite or (a, b) is zero.
    """
    hs = np.asarray(hs, dtype=float)
    count = len(hs)
    h7, h8 = hs[:, 2, 0], hs[:, 2, 1]
    persp = h7 * h7 + h8 * h8
    norm2 = (hs * hs).reshape(count, 9).sum(axis=-1)
    flat = persp <= PERSPECTIVE_EPS * norm2

    col_a, col_b = hs[:, :, 0], hs[:, :, 1]
    w = np.cross(col_a, col_b)
    # squared column norms reduce through a BLAS dot, as h[:, 0] @ h[:, 0] does
    col_bound = (col_a[:, None, :] @ col_a[:, :, None])[:, 0, 0] * (col_b[:, None, :] @ col_b[:, :, None])[:, 0, 0]
    ambiguous = w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1] <= DIRECTION_EPS * col_bound

    # Vanishing point of the board's steepest-ascent direction (h7, h8);
    # its homogeneous weight is h7^2 + h8^2 > 0, so it is always finite.
    steepest = np.stack([h7, h8, np.zeros(count)], axis=-1)
    vd = (hs @ steepest[:, :, None])[:, :, 0]
    # Line through vd along (w1, w2), assembled homogeneously to avoid the
    # cancellation of a far-away anchor.
    coeffs = np.cross(vd, np.stack([w[:, 0], w[:, 1], np.zeros(count)], axis=-1))
    a, b, c = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    with np.errstate(invalid="ignore"):  # a non-finite row fails below
        norm = np.asarray(_hypot(a, b), dtype=float)
    bad = ~(np.isfinite(norm) & np.isfinite(c)) | (norm == 0.0)
    lines = coeffs / np.where(bad, 1.0, norm)[:, None]
    flip = (lines[:, 0] < 0.0) | ((lines[:, 0] == 0.0) & (lines[:, 1] < 0.0))
    lines = np.where(flip[:, None], -lines, lines)

    errors: list[Exception | None] = [None] * count
    for i in range(count):
        if flat[i]:
            errors[i] = DegenerateView("board is parallel to the image plane (h7 = h8 = 0)")
        elif ambiguous[i]:
            errors[i] = AmbiguousDirection("in-image component of the board normal vanishes")
        elif bad[i]:
            errors[i] = ValueError("line coefficients must be finite with (a, b) != 0")
        if errors[i] is not None:
            lines[i] = np.nan
    return lines, errors


def _intersections(normals: np.ndarray, offsets: np.ndarray):
    """Least-squares intersections of a stack of B bundles of m unit-normal
    lines, normals (B, m, 2) and offsets (B, m). Returns the (B, 2) points
    (NaN where the bundle is ill-conditioned), the (B,) condition numbers
    of the 2x2 normal matrices and the (B,) mask of the bundles whose
    condition number is below DEFAULT_CONDITION_LIMIT."""
    nmat = np.swapaxes(normals, -1, -2) @ normals
    cond = np.linalg.cond(nmat)
    solvable = np.isfinite(cond) & (cond < DEFAULT_CONDITION_LIMIT)
    sol = np.full(offsets.shape[:-1] + (2,), np.nan)
    if np.any(solvable):
        kept = normals[solvable]
        # negated before the transpose, as -normals.T is, so each product
        # runs through the same BLAS kernel and rounding as for one bundle
        rhs = np.swapaxes(-kept, -1, -2) @ offsets[solvable][..., None]
        sol[solvable] = np.linalg.solve(nmat[solvable], rhs)[..., 0]
    return sol, cond, solvable


def estimate_pp(lines: np.ndarray) -> PPEstimate:
    """Point minimizing the sum of squared distances to the given (k, 3)
    unit-normal lines (a, b, c).

    With unit-normal lines the per-line residuals are signed distances.
    Raises TooFewLines for fewer than two lines and ParallelLines when the
    2x2 normal matrix is ill-conditioned.
    """
    if len(lines) < 2:
        raise TooFewLines(f"need at least 2 principal lines, got {len(lines)}")
    # a strided view of the normals would take another BLAS path and round differently
    normals, offsets = np.ascontiguousarray(lines[:, :2]), lines[:, 2]
    sol, cond, solvable = _intersections(normals[None], offsets[None])
    if not solvable[0]:
        raise ParallelLines(f"line bundle is near parallel (condition {float(cond[0]):.3e})")
    residuals = normals @ sol[0] + offsets
    return PPEstimate(
        pp=Point2(sol[0, 0], sol[0, 1]),
        rms_residual=float(np.sqrt(np.mean(residuals**2))),
        per_line_residual=tuple(float(r) for r in residuals),
        condition=float(cond[0]),
    )


def _loo_distances(lines: np.ndarray) -> np.ndarray:
    """Distance of each of the (k, 3) lines to the intersection of all the
    others, -inf where those others are near parallel (the line cannot be
    judged). The k leave-one-out bundles are solved as one stack."""
    k = len(lines)
    normals, offsets = lines[:, :2], lines[:, 2]
    others = np.broadcast_to(np.arange(k), (k, k))[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    sol, _, solvable = _intersections(normals[others], offsets[others])
    distances = np.abs(normals[:, 0] * sol[:, 0] + normals[:, 1] * sol[:, 1] + offsets)
    return np.where(solvable, distances, -np.inf)


def flag_outlier_lines(
    lines: np.ndarray,
    threshold_px: float = DEFAULT_OUTLIER_THRESHOLD_PX,
) -> tuple[list[int], list[int]]:
    """Leave-one-out screening of a bundle of (k, 3) principal lines.

    Repeatedly estimates the intersection without each line in turn and
    removes the single worst line whose distance to its leave-one-out
    estimate exceeds the threshold, until the bundle is stable. Removing
    one offender at a time keeps a gross outlier from dragging the
    consensus and implicating clean lines. Each round solves its k
    leave-one-out bundles as one stack.

    Returns (inliers, outliers) as row indices into lines, the inliers in
    row order and the outliers in removal order. Raises TooFewLines for
    fewer than four lines and AllFlagged if screening would leave fewer
    than three mutually consistent lines.
    """
    if len(lines) < 4:
        raise TooFewLines(f"leave-one-out screening needs at least 4 lines, got {len(lines)}")
    inliers = list(range(len(lines)))
    outliers: list[int] = []
    while len(inliers) >= 4:
        distances = _loo_distances(lines[inliers])
        worst = int(np.argmax(distances))
        if distances[worst] <= threshold_px:
            break
        outliers.append(inliers.pop(worst))
    if len(inliers) == 3:
        est = estimate_pp(lines[inliers])
        if max(abs(r) for r in est.per_line_residual) > threshold_px:
            raise AllFlagged(
                "screening would flag more than n - 3 lines; remaining bundle is inconsistent"
            )
    return inliers, outliers
