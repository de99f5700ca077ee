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
from .geometry import Homography, Line2, Point2

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


@dataclass(frozen=True)
class PrincipalLine:
    """Symmetry axis of one view: the line, a computable on-line anchor
    (the steepest-ascent vanishing point), and the unit direction."""

    line: Line2
    source_view: str | None
    anchor: Point2
    direction: tuple[float, float]

    def __post_init__(self):
        scale = max(1.0, abs(self.anchor.u), abs(self.anchor.v))
        if self.line.distance(self.anchor) > 1e-9 * scale:
            raise ValueError("anchor does not satisfy the line equation")
        dot = self.line.a * self.direction[0] + self.line.b * self.direction[1]
        if abs(dot) > 1e-12:
            raise ValueError("direction is not perpendicular to the line normal")

    @classmethod
    def from_line(cls, line: Line2, source_view: str | None = None) -> "PrincipalLine":
        """Wrap a bare line, anchored at the foot of the perpendicular from
        the origin, directed along (-b, a)."""
        anchor = Point2(-line.c * line.a, -line.c * line.b)
        return cls(line, source_view, anchor, (-line.b, line.a))


@dataclass(frozen=True)
class PPEstimate:
    """Least-squares intersection of a line bundle."""

    pp: Point2
    rms_residual: float
    per_line_residual: tuple[float, ...]
    condition: float


def principal_lines(
    homographies: list[Homography], source_views: list[str | None]
) -> tuple[list[PrincipalLine | None], list[Exception | None]]:
    """Closed-form symmetry axes of a stack of views, one per homography.

    The perspective and direction tests, the vanishing points and the line
    coefficients are computed on the whole stack; each line is then built
    on its own. Returns the lines and, aligned with them, the error of each
    view that has none: DegenerateView for a fronto-parallel board
    (h7 = h8 = 0, no perspective) and AmbiguousDirection when the in-image
    component of the board normal vanishes.
    """
    count = len(homographies)
    hs = np.array([hom.h for hom in homographies]).reshape(count, 3, 3)
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

    lines: list[PrincipalLine | None] = [None] * count
    errors: list[Exception | None] = [None] * count
    for i, source_view in enumerate(source_views):
        if flat[i]:
            errors[i] = DegenerateView("board is parallel to the image plane (h7 = h8 = 0)")
        elif ambiguous[i]:
            errors[i] = AmbiguousDirection("in-image component of the board normal vanishes")
        else:
            try:
                a, b, c = coeffs[i].tolist()
                u, v, z = vd[i].tolist()
                w1, w2 = w[i, 0].item(), w[i, 1].item()
                dnorm = math.hypot(w1, w2)
                anchor = Point2(u / z, v / z)
                lines[i] = PrincipalLine(Line2(a, b, c), source_view, anchor, (w1 / dnorm, w2 / dnorm))
            except ValueError as err:
                errors[i] = err
    return lines, errors


def principal_line(homography: Homography, source_view: str | None = None) -> PrincipalLine:
    """`principal_lines` for one view. Raises DegenerateView or
    AmbiguousDirection."""
    lines, errors = principal_lines([homography], [source_view])
    if errors[0] is not None:
        raise errors[0]
    return lines[0]


def _intersections(normals: np.ndarray, offsets: np.ndarray, condition_limit: float):
    """Least-squares intersections of a stack of B bundles of m unit-normal
    lines, normals (B, m, 2) and offsets (B, m). Returns the (B, 2) points
    (NaN where the bundle is ill-conditioned), the (B,) condition numbers
    of the 2x2 normal matrices and the (B,) mask of the bundles that are
    well-conditioned."""
    nmat = np.swapaxes(normals, -1, -2) @ normals
    cond = np.linalg.cond(nmat)
    solvable = np.isfinite(cond) & (cond < condition_limit)
    sol = np.full(offsets.shape[:-1] + (2,), np.nan)
    if np.any(solvable):
        kept = normals[solvable]
        # negated before the transpose, as -normals.T is, so each product
        # runs through the same BLAS kernel and rounding as for one bundle
        rhs = np.swapaxes(-kept, -1, -2) @ offsets[solvable][..., None]
        sol[solvable] = np.linalg.solve(nmat[solvable], rhs)[..., 0]
    return sol, cond, solvable


def estimate_pp(
    lines: list[PrincipalLine],
    condition_limit: float = DEFAULT_CONDITION_LIMIT,
) -> PPEstimate:
    """Point minimizing the sum of squared distances to the given lines.

    With unit-normal lines the per-line residuals are signed distances.
    Raises TooFewLines for fewer than two lines and ParallelLines when the
    2x2 normal matrix is ill-conditioned.
    """
    if len(lines) < 2:
        raise TooFewLines(f"need at least 2 principal lines, got {len(lines)}")
    normals = np.array([[pl.line.a, pl.line.b] for pl in lines])
    offsets = np.array([pl.line.c for pl in lines])
    sol, cond, solvable = _intersections(normals[None], offsets[None], condition_limit)
    if not solvable[0]:
        raise ParallelLines(f"line bundle is near parallel (condition {float(cond[0]):.3e})")
    residuals = normals @ sol[0] + offsets
    return PPEstimate(
        pp=Point2(sol[0, 0], sol[0, 1]),
        rms_residual=float(np.sqrt(np.mean(residuals**2))),
        per_line_residual=tuple(float(r) for r in residuals),
        condition=float(cond[0]),
    )


def _loo_distances(lines: list[PrincipalLine]) -> np.ndarray:
    """Distance of each line to the intersection of all the others, -inf
    where those others are near parallel (the line cannot be judged). The
    k leave-one-out bundles are solved as one stack."""
    k = len(lines)
    normals = np.array([[pl.line.a, pl.line.b] for pl in lines])
    offsets = np.array([pl.line.c for pl in lines])
    others = np.broadcast_to(np.arange(k), (k, k))[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    sol, _, solvable = _intersections(normals[others], offsets[others], DEFAULT_CONDITION_LIMIT)
    distances = np.abs(normals[:, 0] * sol[:, 0] + normals[:, 1] * sol[:, 1] + offsets)
    return np.where(solvable, distances, -np.inf)


def flag_outlier_lines(
    lines: list[PrincipalLine],
    threshold_px: float = DEFAULT_OUTLIER_THRESHOLD_PX,
) -> tuple[list[PrincipalLine], list[PrincipalLine]]:
    """Leave-one-out screening of a principal-line bundle.

    Repeatedly estimates the intersection without each line in turn and
    removes the single worst line whose distance to its leave-one-out
    estimate exceeds the threshold, until the bundle is stable. Removing
    one offender at a time keeps a gross outlier from dragging the
    consensus and implicating clean lines. Each round solves its k
    leave-one-out bundles as one stack.

    Returns (inliers, outliers). Raises TooFewLines for fewer than four
    lines and AllFlagged if screening would leave fewer than three
    mutually consistent lines.
    """
    if len(lines) < 4:
        raise TooFewLines(f"leave-one-out screening needs at least 4 lines, got {len(lines)}")
    inliers = list(lines)
    outliers: list[PrincipalLine] = []
    while len(inliers) >= 4:
        distances = _loo_distances(inliers)
        worst = int(np.argmax(distances))
        if distances[worst] <= threshold_px:
            break
        outliers.append(inliers.pop(worst))
    if len(inliers) == 3:
        est = estimate_pp(inliers)
        if max(abs(r) for r in est.per_line_residual) > threshold_px:
            raise AllFlagged(
                "screening would flag more than n - 3 lines; remaining bundle is inconsistent"
            )
    return inliers, outliers
