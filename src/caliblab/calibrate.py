"""Full intrinsic and extrinsic calibration from planar views.

Two routes are provided. The geometric route intersects per-view symmetry
axes to locate the principal point, then recovers the focal length from
per-view closed forms. The algebraic route solves the classic conic
constraint system built from all homographies at once. Both share the
same homography estimation, extrinsic decomposition, and reprojection
metric, and an optional Levenberg-Marquardt refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BehindCamera, CaliblabError, DegenerateSystem, InsufficientViews, NoFocalEstimate
from .geometry import Point2, estimate_homographies
from .principal_line import DEFAULT_OUTLIER_THRESHOLD_PX, estimate_pp, flag_outlier_lines, principal_lines
from .rotations import nearest_rotation, rodrigues, vector_norm

# Focal-length constraints are skipped when their denominator is this small
# relative to the perspective terms h7^2 + h8^2 (scale free in H).
FOCAL_DENOM_RTOL = 1e-8

# Conic system must keep its fifth singular value above this fraction of
# the largest one, or the solution is not isolated.
CONIC_RANK_RTOL = 1e-12

LM_INITIAL_LAMBDA = 1e-3
LM_MAX_ITERS = 100
LM_REL_TOL = 1e-12


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole parameters with square pixels and zero skew."""

    f: float
    pp: Point2

    def __post_init__(self):
        if not (math.isfinite(self.f) and self.f > 0.0):
            raise ValueError(f"focal length must be positive, got {self.f}")


@dataclass(frozen=True, eq=False)
class Cell:
    """The views of one (pose, focal setting) cell as stacked arrays, row i
    for view ids[i]: board and image corners (V, n, 2), of which the first
    count[i] of row i are real and the rest zero padding, and homographies
    h (V, 3, 3). The arrays are made read-only."""

    ids: tuple[str, ...]
    board: np.ndarray
    image: np.ndarray
    count: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for array in (self.board, self.image, self.count, self.h):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def mask(self) -> np.ndarray:
        """(V, n) mask of the real corners."""
        return np.arange(self.board.shape[1]) < self.count[:, None]

    def take(self, rows) -> Cell:
        """The views at rows (an index array or a slice), padded to the longest of them."""
        rows = np.arange(len(self))[rows]
        if rows.tolist() == list(range(len(self))):
            return self  # every view in order: the cell is immutable, so no copy
        width = self.count[rows].max(initial=0)
        ids = tuple(self.ids[i] for i in rows.tolist())
        board, image = self.board[rows, :width], self.image[rows, :width]
        return Cell(ids, board, image, self.count[rows], self.h[rows])

    @staticmethod
    def concat(cells: Sequence[Cell]) -> Cell:
        """The views of cells one after another, padded to the longest."""
        if not cells:
            return views_from_points((), (), ())[0]
        # filled in place: np.pad per cell cost cross_validate about a tenth of its time
        board, image = np.zeros((2, sum(len(c) for c in cells), max(c.board.shape[1] for c in cells), 2))
        ends = np.cumsum([len(c) for c in cells]).tolist()
        for c, start, end in zip(cells, [0, *ends], ends):
            board[start:end, : c.board.shape[1]], image[start:end, : c.image.shape[1]] = c.board, c.image
        ids = sum((c.ids for c in cells), ())
        count, hs = (np.concatenate([getattr(c, name) for c in cells]) for name in ("count", "h"))
        return Cell(ids, board, image, count, hs)

    def by_count(self):
        """(n, rows) per corner count n, ascending; rows index the views with n corners."""
        for n in sorted(set(self.count.tolist())):  # np.unique would import numpy.ma
            yield n, np.flatnonzero(self.count == n)


def views_from_points(
    view_ids: Sequence[str], boards: Sequence, images: Sequence
) -> tuple[Cell, list[Exception | None]]:
    """Build the cell of views from matching (n, 2) board and image corner
    arrays, one pair per view id. Views with the same corner count share
    one stacked DLT.

    Returns the cell of the views that were built, in input order, and,
    aligned with view_ids, the error of each view that cannot be built:
    ValueError for mismatched shapes, fewer than 4 corners or non-finite
    coordinates, DegenerateConfiguration for coincident, collinear or
    duplicated points.
    """
    errors: list[Exception | None] = [None] * len(view_ids)
    arrays = []
    for i, (_, board_xy, image_uv) in enumerate(zip(view_ids, boards, images)):
        board_xy = np.array(board_xy, dtype=float)
        image_uv = np.array(image_uv, dtype=float)
        if board_xy.shape != image_uv.shape or board_xy.ndim != 2 or board_xy.shape[1] != 2:
            errors[i] = ValueError("board and image points must both be (n, 2) arrays")
        elif len(board_xy) < 4:
            errors[i] = ValueError(f"a calibration view needs at least 4 corners, got {len(board_xy)}")
        elif not (np.all(np.isfinite(board_xy)) and np.all(np.isfinite(image_uv))):
            errors[i] = ValueError("corner coordinates must be finite")
        arrays.append((board_xy, image_uv))

    count = np.array([0 if err else len(board) for (board, _), err in zip(arrays, errors)], dtype=int)
    board, image = np.zeros((2, len(arrays), count.max(initial=0), 2))
    for i in np.flatnonzero(count).tolist():
        board[i, : count[i]], image[i, : count[i]] = arrays[i]
    hs = np.full((len(arrays), 3, 3), np.nan)
    for n in sorted(set(count.tolist()) - {0}):
        rows = np.flatnonzero(count == n)
        hs[rows], failed = estimate_homographies(board[rows, :n], image[rows, :n])
        for i, err in zip(rows.tolist(), failed):
            errors[i] = err
    cell = Cell(tuple(view_ids), board, image, count, hs)
    return cell.take([i for i, err in enumerate(errors) if err is None]), errors


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Intrinsics of a cell and the pose of each accepted view: row i of
    rot (V, 3, 3) and t (V, 3) belongs to row i of views, the accepted views.
    diagnostics holds the geometric route's principal-line bundle
    "condition" and the refinement's "converged" and "lm_iterations"."""

    intrinsics: Intrinsics
    rot: np.ndarray
    t: np.ndarray
    views: Cell
    rmse: float
    flags: tuple[str, ...]
    diagnostics: dict = field(default_factory=dict)


def _board_points(board_xy: np.ndarray) -> np.ndarray:
    """Board-plane corners (..., n, 2) as 3D points (..., n, 3) with z = 0."""
    return np.concatenate([board_xy, np.zeros(board_xy.shape[:-1] + (1,))], axis=-1)


def _project(f, pp, rot: np.ndarray, t: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of board points (..., n, 3) through poses
    rot (..., 3, 3), t (..., 3) with focal lengths f (...) and principal
    points pp (..., 2), one per pose or one for all: camera-frame points
    (..., n, 3) and pixels (..., n, 2)."""
    cam = pts @ np.swapaxes(rot, -1, -2) + t[..., None, :]
    return cam, np.asarray(f)[..., None, None] * cam[..., :2] / cam[..., 2:3] + np.asarray(pp)[..., None, :]


def _views_rmse(intr: Intrinsics, rot: np.ndarray, t: np.ndarray, views: Cell) -> float:
    """Reprojection RMSE of the views under intr and poses rot, t: each view's
    squared residuals are summed alone, and the sums added in view order."""
    per_view = np.empty(len(views))
    for n, rows in views.by_count():
        _, uv = _project(intr.f, (intr.pp.u, intr.pp.v), rot[rows], t[rows], _board_points(views.board[rows, :n]))
        d = uv - views.image[rows, :n]
        per_view[rows] = (d * d).reshape(len(rows), -1).sum(axis=1)
    sq = 0.0
    for s in per_view.tolist():
        sq += s
    n = int(views.count.sum())
    return math.sqrt(sq / n) if n else 0.0


def focal_from_homographies(hs: np.ndarray, pp: Point2) -> list[float]:
    """Closed-form focal estimates of homographies hs (V, 3, 3) given a
    known principal point, view by view.

    With A = K^-1 H, the first two columns of A are scaled rotation columns,
    so r1 . r2 = 0 and |r1| = |r2| each yield one equation in f^2, in that
    order. A constraint whose denominator vanishes, or whose f^2 is not
    positive, is skipped: fronto-parallel views give none.
    """
    a1, a2 = hs[:, 0, 0] - pp.u * hs[:, 2, 0], hs[:, 0, 1] - pp.u * hs[:, 2, 1]
    b1, b2 = hs[:, 1, 0] - pp.v * hs[:, 2, 0], hs[:, 1, 1] - pp.v * hs[:, 2, 1]
    p1, p2 = hs[:, 2, 0], hs[:, 2, 1]
    # r1 . r2 = 0: (a1 a2 + b1 b2) / f^2 + p1 p2 = 0
    # |r1| = |r2|: (a1^2 + b1^2 - a2^2 - b2^2) / f^2 + p1^2 - p2^2 = 0
    num = np.stack([-(a1 * a2 + b1 * b2), a1 * a1 + b1 * b1 - a2 * a2 - b2 * b2], axis=-1)
    den = np.stack([p1 * p2, p2 * p2 - p1 * p1], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f2 = num / den
    usable = (np.abs(den) > FOCAL_DENOM_RTOL * (p1 * p1 + p2 * p2)[:, None]) & (f2 > 0.0)
    return np.sqrt(f2[usable]).tolist()


def _intrinsic_arrays(intrinsics: Sequence[Intrinsics]) -> tuple[np.ndarray, np.ndarray]:
    """Focal lengths (B,) and principal points (B, 2) of a sequence of intrinsics."""
    return np.array([i.f for i in intrinsics]), np.array([(i.pp.u, i.pp.v) for i in intrinsics]).reshape(-1, 2)


def _decompose_homographies(
    hs: np.ndarray, f: np.ndarray, pp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose a stack of homographies H = K [r1 r2 t] (B, 3, 3), item i
    under focal length f[i] and principal point pp[i], into rotations
    (B, 3, 3) and translations (B, 3).

    The scale is fixed by the mean norm of the two rotation columns, the
    overall sign by requiring t_z > 0, and [r1 r2 r1xr2] is projected onto
    the nearest rotation. Also returns the (B,) mask of the views whose
    board plane passes through the camera center, whose poses are not
    usable.
    """
    kinv = np.zeros(hs.shape)
    kinv[:, 0, 0] = kinv[:, 1, 1] = 1.0 / f
    kinv[:, :2, 2] = -pp / f[:, None]
    kinv[:, 2, 2] = 1.0
    a = kinv @ hs
    scale = 2.0 / (vector_norm(a[..., 0]) + vector_norm(a[..., 1]))
    t = scale[:, None] * a[..., 2]
    sign = np.where(t[:, 2] < 0.0, -1.0, 1.0)
    scale, t = sign * scale, sign[:, None] * t
    through_center = np.abs(t[:, 2]) <= 1e-9 * vector_norm(t)
    r1 = scale[:, None] * a[..., 0]
    r2 = scale[:, None] * a[..., 1]
    rot = nearest_rotation(np.stack([r1, r2, np.cross(r1, r2)], axis=-1))
    return rot, t, through_center


def _decompose_views(views: Cell, intr: Intrinsics) -> tuple[Cell, np.ndarray, np.ndarray, list[str]]:
    """Decompose every view's homography: the cell of the views with a
    usable pose, their rotations (V, 3, 3) and translations (V, 3), and the
    ids of the views whose board plane passes through the camera center.
    Raises InsufficientViews when fewer than 2 views keep a pose."""
    rot, t, through_center = _decompose_homographies(views.h, *_intrinsic_arrays([intr] * len(views)))
    kept = np.flatnonzero(~through_center)
    if len(kept) < 2:
        raise InsufficientViews("fewer than 2 views survived extrinsic decomposition")
    return views.take(kept), rot[kept], t[kept], [views.ids[i] for i in np.flatnonzero(through_center).tolist()]


def _median(values: Sequence[float]) -> float:
    # np.median would import numpy.ma, which nothing else here needs
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def calibrate_geometric(
    cell: Cell,
    pl_outlier_px: float = DEFAULT_OUTLIER_THRESHOLD_PX,
) -> CalibrationResult:
    """Symmetry-axis calibration pipeline.

    Per-view axes are screened by leave-one-out distance (only when four
    or more are available), the principal point is their least-squares
    intersection, the focal length is the median of all per-view
    closed-form estimates, and extrinsics are decomposed per view.
    Screened-out or degenerate views are reported in flags and excluded
    from every later stage.
    """
    lines, _ = principal_lines(cell.h)
    has_line = ~np.isnan(lines[:, 0])
    flags = [cell.ids[i] for i in np.flatnonzero(~has_line).tolist()]
    rows = np.flatnonzero(has_line)
    lines = lines[rows]
    if len(rows) >= 4:
        inliers, outliers = flag_outlier_lines(lines, threshold_px=pl_outlier_px)
        flags.extend(cell.ids[rows[i]] for i in outliers)
        rows, lines = rows[inliers], lines[inliers]

    if len(rows) < 2:
        raise InsufficientViews(
            f"geometric calibration needs at least 2 views with valid principal lines, got {len(rows)}"
        )

    pp_est = estimate_pp(lines)
    samples = focal_from_homographies(cell.h[rows], pp_est.pp)
    if not samples:
        raise NoFocalEstimate("all per-view focal constraints were degenerate")

    intr = Intrinsics(_median(samples), pp_est.pp)
    kept, rot, t, flagged = _decompose_views(cell.take(rows), intr)
    flags.extend(flagged)

    return CalibrationResult(
        intrinsics=intr,
        rot=rot,
        t=t,
        views=kept,
        rmse=_views_rmse(intr, rot, t, kept),
        flags=tuple(flags),
        diagnostics={"condition": pp_est.condition},
    )


def _conic_rows(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    """Rows (V, 6) of the absolute-conic constraint h_a^T B h_b of each
    pair of homography columns ha, hb (V, 3)."""
    (a0, a1, a2), (b0, b1, b2) = ha.T, hb.T
    return np.stack([a0 * b0, a0 * b1 + a1 * b0, a1 * b1, a2 * b0 + a0 * b2, a2 * b1 + a1 * b2, a2 * b2], axis=-1)


def calibrate_algebraic(cell: Cell) -> CalibrationResult:
    """Conic-constraint calibration from all views jointly.

    Each homography contributes two linear constraints on the absolute
    conic; the smallest singular vector gives the conic, from which
    (u0, v0, f) are extracted in closed form; the camera model fixes skew
    at zero and aspect at one. The system is solved in similarity-normalized
    image coordinates for conditioning.
    """
    if len(cell) < 3:
        raise InsufficientViews(
            f"the conic system needs at least 3 views with distinct rotations, got {len(cell)}"
        )

    all_uv = cell.image[cell.mask]
    center = all_uv.mean(axis=0)
    spread = float(np.sqrt(np.mean(np.sum((all_uv - center) ** 2, axis=1))))
    if spread <= 0.0:
        raise DegenerateSystem("image points are coincident")
    tmat = np.array(
        [[1.0 / spread, 0.0, -center[0] / spread], [0.0, 1.0 / spread, -center[1] / spread], [0.0, 0.0, 1.0]]
    )

    hs = tmat @ cell.h
    # unit first two columns per view, or an image shift or a board unit reweights the views
    # (conditioning by normalisation: Hartley 1997; Zhang 2000)
    hs = hs / np.sqrt((hs[:, :, :2] ** 2).sum(axis=(1, 2)))[:, None, None]
    vmat = np.empty((2 * len(cell), 6))
    vmat[0::2] = _conic_rows(hs[:, :, 0], hs[:, :, 1])
    vmat[1::2] = _conic_rows(hs[:, :, 0], hs[:, :, 0]) - _conic_rows(hs[:, :, 1], hs[:, :, 1])

    _, sing, vt = np.linalg.svd(vmat)
    if sing[4] <= CONIC_RANK_RTOL * sing[0]:
        raise DegenerateSystem(
            "conic constraint system is rank deficient (views do not exercise distinct rotations)"
        )
    b = vt[-1]
    if b[0] < 0.0:
        b = -b
    b11, b12, b22, b13, b23, b33 = b
    denom = b11 * b22 - b12 * b12
    if b11 <= 0.0 or denom <= 0.0:
        raise DegenerateSystem("recovered conic is not positive definite")
    v0 = (b12 * b13 - b11 * b23) / denom
    lam = b33 - (b13 * b13 + v0 * (b12 * b13 - b11 * b23)) / b11
    if lam <= 0.0:
        raise DegenerateSystem("recovered conic is not positive definite")
    alpha = math.sqrt(lam / b11)
    beta = math.sqrt(lam * b11 / denom)
    gamma = -b12 * alpha * alpha * beta / lam
    u0 = gamma * v0 / beta - b13 * alpha * alpha / lam

    intr = Intrinsics(
        f=math.sqrt(alpha * beta) * spread,
        pp=Point2(u0 * spread + center[0], v0 * spread + center[1]),
    )

    kept, rot, t, flags = _decompose_views(cell, intr)

    return CalibrationResult(
        intrinsics=intr,
        rot=rot,
        t=t,
        views=kept,
        rmse=_views_rmse(intr, rot, t, kept),
        flags=tuple(flags),
    )


def _join_poses(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """LM pose parameters (..., 12): rotations rot (..., 3, 3) row-major,
    then translations t (..., 3)."""
    return np.concatenate([rot.reshape(rot.shape[:-2] + (9,)), t], axis=-1)


def _split_poses(poses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (..., 3, 3) and translations (..., 3) of LM pose parameters (..., 12)."""
    return poses[..., :9].reshape(poses.shape[:-1] + (3, 3)), poses[..., 9:]


def _pack(f: float, pp: Point2, rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.concatenate([[f, pp.u, pp.v], _join_poses(rot, t).ravel()])


def _retract_poses(poses: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Poses (..., 12) moved by steps (..., 6), (delta, dt), as
    R <- exp([delta]x) R and t <- t + dt."""
    rot, t = _split_poses(poses)
    return _join_poses(rodrigues(steps[..., :3]) @ rot, t + steps[..., 3:])


def _pose_rows(f, rot: np.ndarray, t: np.ndarray, pts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into out (..., n, 2, 6) the derivatives d(u, v)/d(delta, dt)
    of every projected corner under the step of `_retract_poses`, for poses
    rot (..., 3, 3), t (..., 3), board points pts (..., n, 3) and focal
    lengths f that broadcast against (..., n). The entries out[..., 0, 4]
    and out[..., 1, 3] are zero and are left as they are. Returns the normalized camera
    coordinates (x/z, y/z) of the corners, (..., n, 2).

    With q = R p and cam = q + t, d(cam)/d(delta) = -[q]x (Triggs et al.,
    "Bundle Adjustment - A Modern Synthesis", 2000, sec. 2.2), so each row
    a of d(u, v)/d(cam) gives the rotation columns a @ -[q]x = q x a."""
    q = pts @ np.swapaxes(rot, -1, -2)
    cam = q + t[..., None, :]
    xy = cam[..., :2] / cam[..., 2:3]
    qx, qy, qz = q[..., 0], q[..., 1], q[..., 2]
    # d(u, v)/d(cam) is [[w, 0, a02], [0, w, a12]]: the dt columns
    out[..., 0, 3] = out[..., 1, 4] = w = f / cam[..., 2]
    out[..., 0, 5] = a02 = -w * xy[..., 0]
    out[..., 1, 5] = a12 = -w * xy[..., 1]
    out[..., 0, 0] = a02 * qy
    out[..., 0, 1] = w * qz - a02 * qx
    out[..., 0, 2] = -w * qy
    out[..., 1, 0] = a12 * qy - w * qz
    out[..., 1, 1] = -a12 * qx
    out[..., 1, 2] = w * qx
    return xy


def _views_problem(pts: np.ndarray, image: np.ndarray, mask: np.ndarray, frozen=None):
    """Residual, normal-equation and retraction callbacks of independent
    problems over views: problem i's views have board points pts[i]
    (V, n, 3) and image corners image[i] (V, n, 2), real where mask (V, n)
    is set and padding elsewhere, and each its own pose, with parameters
    (R row-major, t) and steps (delta, dt). With frozen None the views
    share a camera whose (f, u0, v0) lead the parameters and steps (S = 3);
    with frozen = (f, pp) problem i's camera is fixed at f[i], pp[i]
    (S = 0). Residuals run over views, then real corners, then (u, v).

    The normal equations come per view in block-arrow form, view v's
    J_v^T J_v and J_v^T r_v over the S shared and its 6 pose coordinates
    (Triggs et al., "Bundle Adjustment - A Modern Synthesis", 2000). Only
    a padded stack gathers residuals and zeroes padded Jacobian rows."""
    n_views, shared, padded = len(mask), 3 if frozen is None else 0, not mask.all()
    # one Jacobian buffer per stack: fresh arrays every iteration would
    # fault in new pages or not depending on the process's heap history
    jac_buffer = np.zeros(pts.shape[:-1] + (2, shared + 6))

    def camera(params, rows):
        if frozen is None:
            return params[:, :1], params[:, None, 1:3]
        return frozen[0][rows, None], frozen[1][rows, None]

    def poses(params):
        return _split_poses(params[:, shared:].reshape(len(params), n_views, 12))

    def residuals(params, rows):
        _, uv = _project(*camera(params, rows), *poses(params), pts[rows])
        d = uv - image[rows]
        return (d[:, mask] if padded else d).reshape(len(rows), -1)

    def normal_equations(params, rows, res):
        jac = jac_buffer[: len(rows)]
        f, _ = camera(params, rows)
        xy = _pose_rows(f[..., None], *poses(params), pts[rows], jac[..., shared:])
        if shared:  # d(u, v)/d(f, u0, v0)
            jac[..., 0] = xy
            jac[..., 0, 1] = jac[..., 1, 2] = 1.0
        if padded:
            jac[:, ~mask] = 0.0
            per_corner = np.zeros(jac.shape[:-1])
            per_corner[:, mask] = res.reshape(len(rows), -1, 2)
            res = per_corner
        jac = jac.reshape(len(rows), n_views, -1, shared + 6)
        jac_t = np.swapaxes(jac, -1, -2)
        return jac_t @ jac, (jac_t @ res.reshape(len(rows), n_views, -1, 1))[..., 0]

    def retract(params, steps):
        # poses as rows of one (B * V, 12) stack: small numpy calls cost more per axis
        moved = _retract_poses(params[:, shared:].reshape(-1, 12), steps[:, shared:].reshape(-1, 6))
        moved = moved.reshape(len(params), -1)
        return np.concatenate([params[:, :shared] + steps[:, :shared], moved], axis=1) if shared else moved

    return residuals, normal_equations, retract


def _sum_squares(res: np.ndarray) -> np.ndarray:
    """Row-wise sum of squares of (B, m) residuals, reduced like `res @ res`."""
    return (res[:, None, :] @ res[:, :, None])[:, 0, 0]


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a x = b for every problem of a stack, a (B, ..., k, k) and b
    (B, ..., k, m): x and the mask of the problems with no singular system.
    A singular system affects only its own problem, whose x stays zero."""
    solved = np.ones(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b), solved
    except np.linalg.LinAlgError:
        x = np.zeros(b.shape)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return x, solved


def _damped_steps(blocks: np.ndarray, grads: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve (J^T J + lam diag(d)) step = -J^T r for every problem of a
    stack, from its block-arrow normal equations per view: blocks
    (B, V, S + 6, S + 6) and gradients (B, V, S + 6), whose first S
    coordinates the problem's views share. d is the diagonal of J^T J
    floored at 1e-12; the shared diagonal sums the views' shared diagonals.

    Each view's damped 6x6 pose block P_v is eliminated: the shared step
    solves the reduced S x S system (the Schur complement), and each pose
    step follows from it (Hartley & Zisserman, "Multiple View Geometry",
    2nd ed., App. 6); with S = 0 there is nothing to reduce. Returns the
    steps (B, S + 6V), shared first, then per view, and the mask of the
    problems whose damped systems were not singular."""
    shared, lam = blocks.shape[-1] - 6, lam[:, None, None]
    diag = np.diagonal(blocks, axis1=-2, axis2=-1)
    pose_blocks = blocks[..., shared:, shared:] + (lam * np.maximum(diag[..., shared:], 1e-12))[..., None] * np.eye(6)
    if not shared:
        steps, solved = _solve_each(pose_blocks, -grads[..., None])
        return steps.reshape(len(blocks), -1), solved
    coupling = blocks[..., :shared, shared:]  # W_v, (B, V, S, 6)
    rhs = np.concatenate([np.swapaxes(coupling, -1, -2), -grads[..., shared:, None]], axis=-1)
    y, solved = _solve_each(pose_blocks, rhs)  # P_v^-1 [W_v^T, -g_v]
    reduced = (blocks[..., :shared, :shared] - coupling @ y[..., :shared]).sum(axis=1)
    reduced = reduced + (lam[:, 0] * np.maximum(diag[..., :shared].sum(axis=1), 1e-12))[..., None] * np.eye(shared)
    shared_steps, reduced_solved = _solve_each(
        reduced, -(grads[..., :shared, None] + coupling @ y[..., shared:]).sum(axis=1)
    )
    pose_steps = y[..., shared] - (y[..., :shared] @ shared_steps[:, None])[..., 0]
    steps = np.concatenate([shared_steps[..., 0], pose_steps.reshape(len(blocks), -1)], axis=1)
    return steps, solved & reduced_solved


def _levenberg_marquardt(params0, residuals, normal_equations, retract):
    """Damped Gauss-Newton on a stack of independent least-squares problems.

    params0 is (B, P). residuals(params, rows) evaluates the problems
    `rows` at params (len(rows), P) and returns their (len(rows), m)
    residuals r; normal_equations(params, rows, res) returns their
    Gauss-Newton systems at residuals res in the block-arrow form that
    `_damped_steps` solves, with J the derivative of r along the step
    coordinates; retract(params, steps) returns the parameters moved by
    steps (len(rows), S + 6V). Every problem follows its own multiplicative
    lambda schedule, as if it were solved alone: x10 on reject (a singular
    damped system is a reject), x0.1 on accept, give up once lambda exceeds
    1e12, stop on relative cost change < 1e-12 or after LM_MAX_ITERS systems.
    Returns params, cost, converged and iteration counts, each per problem.
    """
    params = np.array(params0, dtype=float)
    live = np.arange(len(params))
    res = residuals(params, live)
    cost = _sum_squares(res)
    lam = np.full(len(params), LM_INITIAL_LAMBDA)
    converged = np.zeros(len(params), dtype=bool)
    iters = np.zeros(len(params), dtype=int)
    while live.size:
        iters[live] += 1
        blocks, grads = normal_equations(params[live], live, res[live])
        accepted = np.zeros(len(live), dtype=bool)
        rel = np.zeros(len(live))
        search = np.flatnonzero(lam[live] <= 1e12)  # positions in live
        while search.size:
            rows = live[search]
            steps, solved = _damped_steps(blocks[search], grads[search], lam[rows])
            tried, tried_rows = search[solved], rows[solved]
            if tried.size:
                trial = retract(params[tried_rows], steps[solved])
                trial_res = residuals(trial, tried_rows)
                trial_cost = _sum_squares(trial_res)
                ok = trial_cost <= cost[tried_rows]
                took = tried_rows[ok]
                rel[tried[ok]] = (cost[took] - trial_cost[ok]) / np.maximum(cost[took], 1e-300)
                params[took], res[took], cost[took] = trial[ok], trial_res[ok], trial_cost[ok]
                accepted[tried[ok]] = True
            search = search[~accepted[search]]
            lam[live[search]] *= 10.0
            search = search[lam[live[search]] <= 1e12]
        took = live[accepted]
        lam[took] = np.maximum(lam[took] * 0.1, 1e-12)
        converged[took] = rel[accepted] < LM_REL_TOL
        live = live[accepted & ~converged[live] & (iters[live] < LM_MAX_ITERS)]
    return params, cost, converged, iters


def _usable_poses(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the solved poses (..., 3, 3), (..., 3) that are finite,
    proper and put the board in front of the camera."""
    finite = np.all(np.isfinite(rot), axis=(-2, -1)) & np.all(np.isfinite(t), axis=-1)
    det = np.linalg.det(np.where(finite[..., None, None], rot, np.eye(3)))
    return finite & (t[..., 2] > 0.0) & (det > 0.0)


class Refinement(NamedTuple):
    """What `refine` returns: the refined results and, aligned with them,
    the error of each cell that could not be refined (its result is then
    None)."""

    results: list[CalibrationResult | None]
    errors: list[CaliblabError | None]

    @property
    def diagnostics(self) -> dict:
        """LM summary of the call: mean iterations per refined cell, and
        whether every refined cell converged."""
        done = [r.diagnostics for r in self.results if r is not None]
        return {
            "lm_iterations": sum(d["lm_iterations"] for d in done) / len(done) if done else 0,
            "converged": all(d["converged"] for d in done),
        }


def refine(starts: Sequence[CalibrationResult]) -> Refinement:
    """Levenberg-Marquardt refinement of (f, u0, v0) and all accepted
    per-view poses of each calibration, minimizing its cell's total squared
    reprojection error over the accepted views the result holds.

    Calibrations with the same accepted-view count and per-view corner
    counts are solved as one stacked LM, each with its own damping and
    stopping, so every entry is what refining its cell alone gives. A
    refined cost never exceeds the starting cost. If the iteration budget
    runs out before the relative cost change drops below 1e-12, the best
    iterate is returned with diagnostics["converged"] = False. A cell fails
    with InsufficientViews below 2 accepted views, and with BehindCamera,
    naming the view, when a refined pose is not finite or puts the board
    behind the camera; a failed cell leaves the others untouched.
    """
    count = len(starts)
    results: list[CalibrationResult | None] = [None] * count
    errors: list[CaliblabError | None] = [None] * count
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, start in enumerate(starts):
        if len(start.views) < 2:
            errors[i] = InsufficientViews("refinement needs at least 2 accepted views")
            continue
        groups.setdefault(tuple(start.views.count.tolist()), []).append(i)

    for layout, members in groups.items():
        group = [starts[i] for i in members]
        params0 = np.array([_pack(r.intrinsics.f, r.intrinsics.pp, r.rot, r.t) for r in group])
        board = np.stack([r.views.board for r in group])
        image = np.stack([r.views.image for r in group])
        params, cost, converged, iters = _levenberg_marquardt(
            params0, *_views_problem(_board_points(board), image, group[0].views.mask)
        )
        rot, t = _split_poses(params[:, 3:].reshape(len(members), len(layout), 12))
        usable = _usable_poses(rot, t)
        for b, (i, start) in enumerate(zip(members, group)):
            bad = np.flatnonzero(~usable[b])
            if bad.size:
                errors[i] = BehindCamera(
                    f"view {start.views.ids[bad[0]]}: refined pose is not finite or lies behind the camera"
                )
                continue
            results[i] = CalibrationResult(
                intrinsics=Intrinsics(params[b, 0], Point2(params[b, 1], params[b, 2])),
                rot=rot[b],
                t=t[b],
                views=start.views,
                rmse=math.sqrt(cost[b] / sum(layout)),
                flags=start.flags,
                diagnostics={**start.diagnostics, "converged": bool(converged[b]), "lm_iterations": int(iters[b])},
            )
    return Refinement(results, errors)


@dataclass(frozen=True, eq=False)
class PoseRefits:
    """Pose-only refits of a sequence of views, each under its own frozen
    intrinsics. Entry i belongs to view i: rotation rot[i] (3, 3),
    translation t[i] (3,) and reprojection RMSE rmse[i]. Where errors[i]
    is set, the refit failed and the entry's pose and RMSE are NaN."""

    rot: np.ndarray
    t: np.ndarray
    rmse: np.ndarray
    errors: tuple[CaliblabError | None, ...]


def refit_view_poses(intrinsics: Sequence[Intrinsics], cell: Cell) -> PoseRefits:
    """Best pose of each view of the cell under frozen intrinsics:
    closed-form decomposition followed by pose-only refinement.
    intrinsics[i] is the frozen camera of the cell's row i; a caller with
    one camera passes [intr] * len(cell).

    Views with the same corner count are solved as one stacked LM, whatever
    their intrinsics, each with its own damping and stopping, so every
    entry is what refitting its view alone gives. A view fails with
    BehindCamera when its board plane passes through the camera center, or
    (naming the view) when its refit pose is not finite or puts the board
    behind the camera. Raises ValueError unless there is one set of
    intrinsics per view.
    """
    count = len(cell)
    if len(intrinsics) != count:
        raise ValueError(f"got {len(intrinsics)} intrinsics for {count} views")
    rot = np.full((count, 3, 3), np.nan)
    t = np.full((count, 3), np.nan)
    rmse = np.full(count, np.nan)
    f, pp = _intrinsic_arrays(intrinsics)
    rot0, t0, through_center = _decompose_homographies(cell.h, f, pp)
    for n, rows in cell.by_count():
        rows = rows[~through_center[rows]]
        if not rows.size:
            continue
        pts = _board_points(cell.board[rows, None, :n])
        problem = _views_problem(pts, cell.image[rows, None, :n], np.ones((1, n), dtype=bool), (f[rows], pp[rows]))
        params, cost, _, _ = _levenberg_marquardt(_join_poses(rot0[rows], t0[rows]), *problem)
        (rot[rows], t[rows]), rmse[rows] = _split_poses(params), np.sqrt(cost / n)
    usable = _usable_poses(rot, t) & np.isfinite(rmse)
    errors: list[CaliblabError | None] = [None] * count
    for i in np.flatnonzero(~usable):
        if through_center[i]:
            errors[i] = BehindCamera("board plane passes through the camera center (t_z ~ 0)")
        else:
            errors[i] = BehindCamera(f"view {cell.ids[i]}: refit pose is not finite or lies behind the camera")
    rot[~usable], t[~usable], rmse[~usable] = np.nan, np.nan, np.nan
    return PoseRefits(rot, t, rmse, tuple(errors))
