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
from typing import Sequence

import numpy as np

from .errors import (
    AmbiguousDirection,
    BehindCamera,
    CaliblabError,
    DegenerateSystem,
    DegenerateView,
    EmptyView,
    InsufficientViews,
    NoFocalEstimate,
)
from .geometry import Homography, Point2, estimate_homographies
from .principal_line import (
    DEFAULT_OUTLIER_THRESHOLD_PX,
    PPEstimate,
    PrincipalLine,
    estimate_pp,
    flag_outlier_lines,
    principal_lines,
)
from .rotations import nearest_rotation, rodrigues, rotate_point_jacobian, rvec_from_rotation, vector_norm

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

    def matrix(self) -> np.ndarray:
        return np.array([[self.f, 0.0, self.pp.u], [0.0, self.f, self.pp.v], [0.0, 0.0, 1.0]])


@dataclass(frozen=True, eq=False)
class Extrinsics:
    """Rigid pose of the board relative to the camera."""

    rot: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        r = np.array(self.rot, dtype=float)
        t = np.array(self.t, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("extrinsics need a 3x3 rotation and a 3-vector translation")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("extrinsics must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise ValueError("rotation is not orthonormal to 1e-9")
        if np.linalg.det(r) < 0.0:
            raise ValueError("rotation must be proper (det = +1)")
        if t[2] <= 0.0:
            raise ValueError(f"board must lie in front of the camera, got t_z = {t[2]}")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rot", r)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True, eq=False)
class CalibrationView:
    """One board observation: matching (n, 2) board and image corner
    arrays, their homography, and (when the view has perspective) its
    principal line."""

    id: str
    homography: Homography
    principal_line: PrincipalLine | None
    board_xy: np.ndarray
    image_uv: np.ndarray

    @classmethod
    def from_points(cls, view_id: str, board_xy, image_uv) -> "CalibrationView":
        """`views_from_points` for one view; raises its error."""
        views, errors = views_from_points([view_id], [board_xy], [image_uv])
        if errors[0] is not None:
            raise errors[0]
        return views[0]


def views_from_points(
    view_ids: Sequence[str], boards: Sequence, images: Sequence
) -> tuple[list[CalibrationView | None], list[Exception | None]]:
    """Build the views of a cell from matching (n, 2) board and image
    corner arrays, one pair per view id.

    Views with the same corner count share one stacked DLT, and all views
    one stacked principal-line pass; a view without perspective gets no
    principal line. Returns the views and, aligned with them, the error of
    each view that cannot be built: ValueError for mismatched shapes,
    fewer than 4 corners or non-finite coordinates, DegenerateConfiguration
    for coincident, collinear or duplicated points.
    """
    count = len(view_ids)
    views: list[CalibrationView | None] = [None] * count
    errors: list[Exception | None] = [None] * count
    arrays = []
    for i, (view_id, board_xy, image_uv) in enumerate(zip(view_ids, boards, images)):
        board_xy = np.array(board_xy, dtype=float)
        image_uv = np.array(image_uv, dtype=float)
        if board_xy.shape != image_uv.shape or board_xy.ndim != 2 or board_xy.shape[1] != 2:
            errors[i] = ValueError("board and image points must both be (n, 2) arrays")
        elif len(board_xy) < 4:
            errors[i] = ValueError(f"a calibration view needs at least 4 corners, got {len(board_xy)}")
        elif not (np.all(np.isfinite(board_xy)) and np.all(np.isfinite(image_uv))):
            errors[i] = ValueError(f"view {view_id}: corner coordinates must be finite")
        board_xy.setflags(write=False)
        image_uv.setflags(write=False)
        arrays.append((board_xy, image_uv))

    homographies: dict[int, Homography] = {}
    corners = [len(board) if err is None else 0 for (board, _), err in zip(arrays, errors)]
    for n in sorted(set(corners) - {0}):
        rows = [i for i, k in enumerate(corners) if k == n]
        built, failed = estimate_homographies(
            np.array([arrays[i][0] for i in rows]), np.array([arrays[i][1] for i in rows])
        )
        for i, homography, err in zip(rows, built, failed):
            if err is None:
                homographies[i] = homography
            else:
                errors[i] = err

    rows = sorted(homographies)
    lines, failed = principal_lines([homographies[i] for i in rows], [view_ids[i] for i in rows])
    for i, line, err in zip(rows, lines, failed):
        if err is not None and not isinstance(err, (DegenerateView, AmbiguousDirection)):
            errors[i] = err
            continue
        board_xy, image_uv = arrays[i]
        views[i] = CalibrationView(view_ids[i], homographies[i], line, board_xy, image_uv)
    return views, errors


@dataclass(frozen=True)
class CalibrationResult:
    method: str
    intrinsics: Intrinsics
    per_view: tuple[Extrinsics, ...]
    accepted_ids: tuple[str, ...]
    pp_estimate: PPEstimate | None
    focal_samples: tuple[float, ...]
    rmse: float
    flags: tuple[str, ...]
    diagnostics: dict = field(default_factory=dict)


def _board_points(board_xy: np.ndarray) -> np.ndarray:
    """Board-plane corners (..., n, 2) as 3D points (..., n, 3) with z = 0."""
    return np.concatenate([board_xy, np.zeros(board_xy.shape[:-1] + (1,))], axis=-1)


def _project(f, u0, v0, rot: np.ndarray, t: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of board points (..., n, 3) through poses
    rot (..., 3, 3), t (..., 3): camera-frame points (..., n, 3) and pixels
    (..., n, 2)."""
    cam = pts @ np.swapaxes(rot, -1, -2) + t[..., None, :]
    return cam, f * cam[..., :2] / cam[..., 2:3] + np.array([u0, v0])


def project_points(intr: Intrinsics, extr: Extrinsics, board_xy: np.ndarray) -> np.ndarray:
    """Pinhole projection of board-plane points, returning (n, 2) pixels."""
    return _project(intr.f, intr.pp.u, intr.pp.v, extr.rot, extr.t, _board_points(board_xy))[1]


def view_rmse(intr: Intrinsics, extr: Extrinsics, view: CalibrationView) -> float:
    if len(view.board_xy) == 0:
        raise EmptyView(f"view {view.id} holds no corners")
    d = project_points(intr, extr, view.board_xy) - view.image_uv
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


def _views_rmse(intr: Intrinsics, extrs: Sequence[Extrinsics], views: Sequence[CalibrationView]) -> float:
    sq = 0.0
    n = 0
    for extr, view in zip(extrs, views):
        d = project_points(intr, extr, view.board_xy) - view.image_uv
        sq += float(np.sum(d * d))
        n += len(d)
    return math.sqrt(sq / n) if n else 0.0


def focal_from_homography(homography: Homography, pp: Point2) -> list[float]:
    """Closed-form focal estimates given a known principal point.

    With A = K^-1 H, the first two columns of A are scaled rotation
    columns, so r1 . r2 = 0 and |r1| = |r2| each yield one equation in
    f^2. Constraints whose denominators vanish are skipped; an empty list
    is a valid return (fronto-parallel view).
    """
    h = homography.h
    u0, v0 = pp.u, pp.v
    a1 = h[0, 0] - u0 * h[2, 0]
    a2 = h[0, 1] - u0 * h[2, 1]
    b1 = h[1, 0] - v0 * h[2, 0]
    b2 = h[1, 1] - v0 * h[2, 1]
    p1, p2 = h[2, 0], h[2, 1]
    persp = p1 * p1 + p2 * p2

    estimates: list[float] = []
    # r1 . r2 = 0: (a1 a2 + b1 b2) / f^2 + p1 p2 = 0
    if abs(p1 * p2) > FOCAL_DENOM_RTOL * persp:
        f2 = -(a1 * a2 + b1 * b2) / (p1 * p2)
        if f2 > 0.0:
            estimates.append(math.sqrt(f2))
    # |r1| = |r2|: (a1^2 + b1^2 - a2^2 - b2^2) / f^2 + p1^2 - p2^2 = 0
    if abs(p2 * p2 - p1 * p1) > FOCAL_DENOM_RTOL * persp:
        f2 = (a1 * a1 + b1 * b1 - a2 * a2 - b2 * b2) / (p2 * p2 - p1 * p1)
        if f2 > 0.0:
            estimates.append(math.sqrt(f2))
    return estimates


def _decompose_homographies(hs: np.ndarray, intr: Intrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked form of `extrinsics_from_homography` for homographies
    (B, 3, 3) under one set of intrinsics: rotations (B, 3, 3),
    translations (B, 3), and a (B,) mask of the views whose board plane
    passes through the camera center, whose poses are not usable."""
    f, u0, v0 = intr.f, intr.pp.u, intr.pp.v
    kinv = np.array([[1.0 / f, 0.0, -u0 / f], [0.0, 1.0 / f, -v0 / f], [0.0, 0.0, 1.0]])
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


def _through_center_error() -> BehindCamera:
    return BehindCamera("board plane passes through the camera center (t_z ~ 0)")


def extrinsics_from_homography(homography: Homography, intr: Intrinsics) -> Extrinsics:
    """Decompose H = K [r1 r2 t] into a proper rotation and translation.

    The scale is fixed by the mean norm of the two rotation columns, the
    overall sign by requiring t_z > 0, and [r1 r2 r1xr2] is projected onto
    the nearest rotation.
    """
    rot, t, through_center = _decompose_homographies(homography.h[None], intr)
    if through_center[0]:
        raise _through_center_error()
    return Extrinsics(rot[0], t[0])


def _decompose_views(views: Sequence[CalibrationView], intr: Intrinsics) -> list[Extrinsics | None]:
    """Per-view `extrinsics_from_homography`, None where the board plane
    passes through the camera center."""
    rots, ts, through_center = _decompose_homographies(np.array([v.homography.h for v in views]), intr)
    return [None if bad else Extrinsics(rot, t) for rot, t, bad in zip(rots, ts, through_center)]


def _median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def calibrate_geometric(
    views: Sequence[CalibrationView],
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
    flags: list[str] = []
    lined_views = []
    for view in views:
        if view.principal_line is None:
            flags.append(view.id)
        else:
            lined_views.append(view)

    lines = [v.principal_line for v in lined_views]
    if len(lines) >= 4:
        inliers, outliers = flag_outlier_lines(lines, threshold_px=pl_outlier_px)
        flags.extend(pl.source_view for pl in outliers)
        inlier_ids = {pl.source_view for pl in inliers}
        accepted = [v for v in lined_views if v.id in inlier_ids]
    else:
        inliers = lines
        accepted = lined_views

    if len(accepted) < 2:
        raise InsufficientViews(
            f"geometric calibration needs at least 2 views with valid principal lines, got {len(accepted)}"
        )

    pp_est = estimate_pp(inliers)
    samples: list[float] = []
    for view in accepted:
        samples.extend(focal_from_homography(view.homography, pp_est.pp))
    if not samples:
        raise NoFocalEstimate("all per-view focal constraints were degenerate")

    intr = Intrinsics(_median(samples), pp_est.pp)
    per_view = []
    kept = []
    for view, extr in zip(accepted, _decompose_views(accepted, intr)):
        if extr is None:
            flags.append(view.id)
        else:
            per_view.append(extr)
            kept.append(view)
    if len(kept) < 2:
        raise InsufficientViews("fewer than 2 views survived extrinsic decomposition")

    return CalibrationResult(
        method="geometric",
        intrinsics=intr,
        per_view=tuple(per_view),
        accepted_ids=tuple(v.id for v in kept),
        pp_estimate=pp_est,
        focal_samples=tuple(samples),
        rmse=_views_rmse(intr, per_view, kept),
        flags=tuple(flags),
    )


def _conic_row(ha: np.ndarray, hb: np.ndarray) -> np.ndarray:
    return np.array(
        [
            ha[0] * hb[0],
            ha[0] * hb[1] + ha[1] * hb[0],
            ha[1] * hb[1],
            ha[2] * hb[0] + ha[0] * hb[2],
            ha[2] * hb[1] + ha[1] * hb[2],
            ha[2] * hb[2],
        ]
    )


def calibrate_algebraic(views: Sequence[CalibrationView]) -> CalibrationResult:
    """Conic-constraint calibration from all views jointly.

    Each homography contributes two linear constraints on the absolute
    conic; the smallest singular vector gives the conic, from which
    (u0, v0, f) are extracted in closed form. The artifact's camera model
    fixes skew at zero and aspect at one, so the recovered skew and aspect
    ratio are reported as diagnostics of that assumption. The system is
    solved in similarity-normalized image coordinates for conditioning.
    """
    views = list(views)
    if len(views) < 3:
        raise InsufficientViews(
            f"the conic system needs at least 3 views with distinct rotations, got {len(views)}"
        )

    all_uv = np.vstack([v.image_uv for v in views])
    center = all_uv.mean(axis=0)
    spread = float(np.sqrt(np.mean(np.sum((all_uv - center) ** 2, axis=1))))
    if spread <= 0.0:
        raise DegenerateSystem("image points are coincident")
    tmat = np.array(
        [[1.0 / spread, 0.0, -center[0] / spread], [0.0, 1.0 / spread, -center[1] / spread], [0.0, 0.0, 1.0]]
    )

    vmat = np.empty((2 * len(views), 6))
    for i, view in enumerate(views):
        h = tmat @ view.homography.h
        vmat[2 * i] = _conic_row(h[:, 0], h[:, 1])
        vmat[2 * i + 1] = _conic_row(h[:, 0], h[:, 0]) - _conic_row(h[:, 1], h[:, 1])

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

    flags: list[str] = []
    per_view = []
    kept = []
    samples: list[float] = []
    for view, extr in zip(views, _decompose_views(views, intr)):
        if extr is None:
            flags.append(view.id)
        else:
            per_view.append(extr)
            kept.append(view)
            samples.extend(focal_from_homography(view.homography, intr.pp))
    if len(kept) < 2:
        raise InsufficientViews("fewer than 2 views survived extrinsic decomposition")

    return CalibrationResult(
        method="algebraic",
        intrinsics=intr,
        per_view=tuple(per_view),
        accepted_ids=tuple(v.id for v in kept),
        pp_estimate=None,
        focal_samples=tuple(samples),
        rmse=_views_rmse(intr, per_view, kept),
        flags=tuple(flags),
        diagnostics={"skew_px": gamma * spread, "aspect_ratio": beta / alpha},
    )


def _pack(f: float, pp: Point2, poses: Sequence[Extrinsics], fit_intrinsics: bool) -> np.ndarray:
    rvecs = rvec_from_rotation(np.array([extr.rot for extr in poses]))
    body = np.concatenate([rvecs, np.array([extr.t for extr in poses])], axis=1).ravel()
    return np.concatenate([[f, pp.u, pp.v], body]) if fit_intrinsics else body


def _unpack(params: np.ndarray, fit_intrinsics: bool, intr0: Intrinsics):
    """(f, u0, v0, poses) with poses a (n_views, 6) array of (rvec, t) rows."""
    if fit_intrinsics:
        return params[0], params[1], params[2], params[3:].reshape(-1, 6)
    return intr0.f, intr0.pp.u, intr0.pp.v, params.reshape(-1, 6)


def _pose_jacobian(f, rvec: np.ndarray, pts: np.ndarray, cam: np.ndarray) -> np.ndarray:
    """d(u, v)/d(rvec, t) of every projected corner, shape (..., n, 2, 6),
    for poses rvec (..., 3), board points pts (..., n, 3) and their
    camera-frame positions cam (..., n, 3)."""
    x, y, z = cam[..., 0], cam[..., 1], cam[..., 2]
    duv_dq = np.zeros(cam.shape[:-1] + (2, 3))  # d(u, v)/d(cam point)
    duv_dq[..., 0, 0] = f / z
    duv_dq[..., 0, 2] = -f * x / (z * z)
    duv_dq[..., 1, 1] = f / z
    duv_dq[..., 1, 2] = -f * y / (z * z)
    block = np.einsum("...ij,...jk->...ik", duv_dq, rotate_point_jacobian(rvec, pts))
    return np.concatenate([block, duv_dq], axis=-1)


def _stack_views(views: Sequence[CalibrationView]):
    """Board points (V, n, 3), image corners (V, n, 2) and the (V, n) mask
    of real corners, with views shorter than the longest one padded."""
    n = max(len(v.board_xy) for v in views)
    board = np.zeros((len(views), n, 2))
    image = np.zeros((len(views), n, 2))
    mask = np.zeros((len(views), n), dtype=bool)
    for i, view in enumerate(views):
        k = len(view.board_xy)
        board[i, :k], image[i, :k], mask[i, :k] = view.board_xy, view.image_uv, True
    return _board_points(board), image, mask


def _cell_residuals(params, stack, fit_intrinsics, intr0) -> np.ndarray:
    f, u0, v0, poses = _unpack(params, fit_intrinsics, intr0)
    pts, image, mask = stack
    _, uv = _project(f, u0, v0, rodrigues(poses[:, :3]), poses[:, 3:], pts)
    return (uv - image)[mask].ravel()


def _cell_jacobian(params, stack, fit_intrinsics, intr0) -> np.ndarray:
    """Analytic Jacobian of the reprojection residuals.

    Rows alternate (u, v) per corner per view; columns are the optional
    (f, u0, v0) head followed by (rvec, t) per view.
    """
    f, u0, v0, poses = _unpack(params, fit_intrinsics, intr0)
    pts, _, mask = stack
    n_views = len(poses)
    cam, _ = _project(f, u0, v0, rodrigues(poses[:, :3]), poses[:, 3:], pts)
    jac = np.zeros(mask.shape + (2, n_views, 6))
    diag = np.arange(n_views)
    jac[diag, :, :, diag] = _pose_jacobian(f, poses[:, :3], pts, cam)
    jac = jac.reshape(mask.shape + (2, 6 * n_views))
    if fit_intrinsics:
        head = np.zeros(mask.shape + (2, 3))
        head[..., 0] = cam[..., :2] / cam[..., 2:3]
        head[..., 0, 1] = 1.0
        head[..., 1, 2] = 1.0
        jac = np.concatenate([head, jac], axis=-1)
    return jac[mask].reshape(-1, jac.shape[-1])


def _residuals(params, views, fit_intrinsics, intr0) -> np.ndarray:
    return _cell_residuals(params, _stack_views(views), fit_intrinsics, intr0)


def _jacobian(params, views, fit_intrinsics, intr0) -> np.ndarray:
    return _cell_jacobian(params, _stack_views(views), fit_intrinsics, intr0)


def _pose_problem(intr: Intrinsics, pts: np.ndarray, image: np.ndarray):
    """Residual and Jacobian callbacks of independent pose-only refits:
    problem i is the view with board points pts[i] (n, 3) and image
    corners image[i] (n, 2), its parameters (rvec, t)."""
    f, u0, v0 = intr.f, intr.pp.u, intr.pp.v

    def residuals(params, rows):
        _, uv = _project(f, u0, v0, rodrigues(params[:, :3]), params[:, 3:], pts[rows])
        return (uv - image[rows]).reshape(len(rows), -1)

    def jacobian(params, rows):
        cam, _ = _project(f, u0, v0, rodrigues(params[:, :3]), params[:, 3:], pts[rows])
        return _pose_jacobian(f, params[:, :3], pts[rows], cam).reshape(len(rows), -1, 6)

    return residuals, jacobian


def _sum_squares(res: np.ndarray) -> np.ndarray:
    """Row-wise sum of squares of (B, m) residuals, reduced like `res @ res`."""
    return (res[:, None, :] @ res[:, :, None])[:, 0, 0]


def _damped_steps(hess, damping, lam, grad):
    """Solve (H + lam diag(d)) step = -g for every problem of the stack.
    Returns the steps and a mask of the problems whose system was not
    singular; a singular system affects only its own problem."""
    systems = hess + (lam[:, None] * damping)[..., None] * np.eye(hess.shape[-1])
    rhs = -grad[..., None]
    solved = np.ones(len(systems), dtype=bool)
    try:
        return np.linalg.solve(systems, rhs)[..., 0], solved
    except np.linalg.LinAlgError:
        steps = np.zeros(grad.shape)
        for i, (system, b) in enumerate(zip(systems, rhs)):
            try:
                steps[i] = np.linalg.solve(system, b)[:, 0]
            except np.linalg.LinAlgError:
                solved[i] = False
        return steps, solved


def _levenberg_marquardt(params0, residuals, jacobian, max_iters=LM_MAX_ITERS):
    """Damped Gauss-Newton on a stack of independent least-squares problems.

    params0 is (B, P). residuals(params, rows) and jacobian(params, rows)
    evaluate the problems `rows` at params (len(rows), P) and return
    (len(rows), m) and (len(rows), m, P). Every problem follows its own
    multiplicative lambda schedule, as if it were solved alone: x10 on
    reject (a singular damped system is a reject), x0.1 on accept, give up
    once lambda exceeds 1e12, stop on relative cost change < 1e-12 or after
    max_iters Jacobians. Returns params, cost, converged and iteration
    counts, each per problem.
    """
    params = np.array(params0, dtype=float)
    every = np.arange(len(params))
    res = residuals(params, every)
    cost = _sum_squares(res)
    lam = np.full(len(params), LM_INITIAL_LAMBDA)
    converged = np.zeros(len(params), dtype=bool)
    iters = np.zeros(len(params), dtype=int)
    live = every if max_iters > 0 else every[:0]
    while live.size:
        iters[live] += 1
        jac = jacobian(params[live], live)
        jac_t = np.swapaxes(jac, -1, -2)
        grad = (jac_t @ res[live][..., None])[..., 0]
        hess = jac_t @ jac
        damping = np.maximum(np.diagonal(hess, axis1=-2, axis2=-1), 1e-12)
        accepted = np.zeros(len(live), dtype=bool)
        rel = np.zeros(len(live))
        search = np.flatnonzero(lam[live] <= 1e12)  # positions in live
        while search.size:
            rows = live[search]
            steps, solved = _damped_steps(hess[search], damping[search], lam[rows], grad[search])
            tried, tried_rows = search[solved], rows[solved]
            if tried.size:
                trial = params[tried_rows] + steps[solved]
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
        live = live[accepted & ~converged[live] & (iters[live] < max_iters)]
    return params, cost, converged, iters


def _usable_poses(rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mask of the solved poses that are finite, proper and put the board
    in front of the camera."""
    finite = np.all(np.isfinite(rot), axis=(-2, -1)) & np.all(np.isfinite(t), axis=-1)
    det = np.linalg.det(np.where(finite[:, None, None], rot, np.eye(3)))
    return finite & (t[:, 2] > 0.0) & (det > 0.0)


def refine(result: CalibrationResult, views: Sequence[CalibrationView], max_iters: int = LM_MAX_ITERS) -> CalibrationResult:
    """Levenberg-Marquardt refinement of (f, u0, v0) and all accepted
    per-view poses, minimizing the total squared reprojection error.

    The refined cost never exceeds the starting cost. If the iteration
    budget runs out before the relative cost change drops below 1e-12, the
    best iterate is returned with diagnostics["converged"] = False. Raises
    BehindCamera, naming the view, when a refined pose is not finite or
    puts the board behind the camera.
    """
    by_id = {v.id: v for v in views}
    accepted = [by_id[i] for i in result.accepted_ids]
    if len(accepted) < 2:
        raise InsufficientViews("refinement needs at least 2 accepted views")

    stack = _stack_views(accepted)
    intr0 = result.intrinsics
    params, cost, converged, iters = _levenberg_marquardt(
        _pack(intr0.f, intr0.pp, result.per_view, fit_intrinsics=True)[None],
        lambda p, rows: _cell_residuals(p[0], stack, True, intr0)[None],
        lambda p, rows: _cell_jacobian(p[0], stack, True, intr0)[None],
        max_iters=max_iters,
    )
    f, u0, v0, poses = _unpack(params[0], True, intr0)
    rots = rodrigues(poses[:, :3])
    for view, usable in zip(accepted, _usable_poses(rots, poses[:, 3:])):
        if not usable:
            raise BehindCamera(f"view {view.id}: refined pose is not finite or lies behind the camera")
    intr = Intrinsics(f, Point2(u0, v0))
    per_view = tuple(Extrinsics(rot, t) for rot, t in zip(rots, poses[:, 3:]))
    n_res = sum(len(v.board_xy) for v in accepted)
    diagnostics = dict(result.diagnostics)
    diagnostics.update(
        {"converged": bool(converged[0]), "lm_iterations": int(iters[0]), "initial_rmse": result.rmse}
    )
    return CalibrationResult(
        method="refined",
        intrinsics=intr,
        per_view=per_view,
        accepted_ids=result.accepted_ids,
        pp_estimate=result.pp_estimate,
        focal_samples=result.focal_samples,
        rmse=math.sqrt(cost[0] / n_res),
        flags=result.flags,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True, eq=False)
class PoseRefits:
    """Pose-only refits of a sequence of views under one set of frozen
    intrinsics. Entry i belongs to view i: rotation rot[i] (3, 3),
    translation t[i] (3,) and reprojection RMSE rmse[i]. Where errors[i]
    is set, the refit failed and the entry's pose and RMSE are NaN."""

    rot: np.ndarray
    t: np.ndarray
    rmse: np.ndarray
    errors: tuple[CaliblabError | None, ...]


def refit_view_poses(intr: Intrinsics, views: Sequence[CalibrationView]) -> PoseRefits:
    """Best pose of each view under frozen intrinsics: closed-form
    decomposition followed by pose-only refinement.

    Views with the same corner count are solved as one stacked LM, each
    with its own damping and stopping, so every entry is what refitting
    its view alone gives. A view fails with BehindCamera when its board
    plane passes through the camera center, or (naming the view) when its
    refit pose is not finite or puts the board behind the camera.
    """
    count = len(views)
    rot = np.full((count, 3, 3), np.nan)
    t = np.full((count, 3), np.nan)
    rmse = np.full(count, np.nan)
    if count == 0:
        return PoseRefits(rot, t, rmse, ())
    rot0, t0, through_center = _decompose_homographies(np.array([v.homography.h for v in views]), intr)
    corners = np.array([len(v.board_xy) for v in views])
    for n in np.unique(corners[~through_center]):
        rows = np.flatnonzero((corners == n) & ~through_center)
        pts = _board_points(np.array([views[i].board_xy for i in rows]))
        image = np.array([views[i].image_uv for i in rows])
        params0 = np.concatenate([rvec_from_rotation(rot0[rows]), t0[rows]], axis=1)
        params, cost, _, _ = _levenberg_marquardt(params0, *_pose_problem(intr, pts, image))
        rot[rows], t[rows], rmse[rows] = rodrigues(params[:, :3]), params[:, 3:], np.sqrt(cost / n)
    usable = _usable_poses(rot, t) & np.isfinite(rmse)
    errors: list[CaliblabError | None] = [None] * count
    for i in np.flatnonzero(~usable):
        if through_center[i]:
            errors[i] = _through_center_error()
        else:
            errors[i] = BehindCamera(f"view {views[i].id}: refit pose is not finite or lies behind the camera")
    rot[~usable], t[~usable], rmse[~usable] = np.nan, np.nan, np.nan
    return PoseRefits(rot, t, rmse, tuple(errors))


def refit_view_pose(intr: Intrinsics, view: CalibrationView) -> tuple[Extrinsics, float]:
    """Best pose of a single view under frozen intrinsics (see
    `refit_view_poses`). Returns the pose and its reprojection RMSE."""
    refits = refit_view_poses(intr, [view])
    if refits.errors[0] is not None:
        raise refits.errors[0]
    return Extrinsics(refits.rot[0], refits.t[0]), float(refits.rmse[0])
