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
    DegenerateSystem,
    DegenerateView,
    EmptyView,
    InsufficientViews,
    NoFocalEstimate,
)
from .geometry import Homography, Point2, estimate_homography
from .principal_line import (
    DEFAULT_OUTLIER_THRESHOLD_PX,
    PPEstimate,
    PrincipalLine,
    estimate_pp,
    flag_outlier_lines,
    principal_line,
)
from .rotations import nearest_rotation, rodrigues, rotate_point_jacobian, rvec_from_rotation

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
        board_xy = np.array(board_xy, dtype=float)
        image_uv = np.array(image_uv, dtype=float)
        if board_xy.shape != image_uv.shape or board_xy.ndim != 2 or board_xy.shape[1] != 2:
            raise ValueError("board and image points must both be (n, 2) arrays")
        if len(board_xy) < 4:
            raise ValueError(f"a calibration view needs at least 4 corners, got {len(board_xy)}")
        if not (np.all(np.isfinite(board_xy)) and np.all(np.isfinite(image_uv))):
            raise ValueError(f"view {view_id}: corner coordinates must be finite")
        homography = estimate_homography(board_xy, image_uv)
        try:
            pl = principal_line(homography, source_view=view_id)
        except (DegenerateView, AmbiguousDirection):
            pl = None
        board_xy.setflags(write=False)
        image_uv.setflags(write=False)
        return cls(
            id=view_id,
            homography=homography,
            principal_line=pl,
            board_xy=board_xy,
            image_uv=image_uv,
        )


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


def project_points(intr: Intrinsics, extr: Extrinsics, board_xy: np.ndarray) -> np.ndarray:
    """Pinhole projection of board-plane points, returning (n, 2) pixels."""
    pts = np.column_stack([board_xy, np.zeros(len(board_xy))])
    cam = pts @ extr.rot.T + extr.t
    return intr.f * cam[:, :2] / cam[:, 2:3] + np.array([intr.pp.u, intr.pp.v])


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


def extrinsics_from_homography(homography: Homography, intr: Intrinsics) -> Extrinsics:
    """Decompose H = K [r1 r2 t] into a proper rotation and translation.

    The scale is fixed by the mean norm of the two rotation columns, the
    overall sign by requiring t_z > 0, and [r1 r2 r1xr2] is projected onto
    the nearest rotation.
    """
    f, u0, v0 = intr.f, intr.pp.u, intr.pp.v
    kinv = np.array([[1.0 / f, 0.0, -u0 / f], [0.0, 1.0 / f, -v0 / f], [0.0, 0.0, 1.0]])
    a = kinv @ homography.h
    scale = 2.0 / (np.linalg.norm(a[:, 0]) + np.linalg.norm(a[:, 1]))
    t = scale * a[:, 2]
    if t[2] < 0.0:
        scale, t = -scale, -t
    if abs(t[2]) <= 1e-9 * np.linalg.norm(t):
        raise BehindCamera("board plane passes through the camera center (t_z ~ 0)")
    r1 = scale * a[:, 0]
    r2 = scale * a[:, 1]
    rot = nearest_rotation(np.column_stack([r1, r2, np.cross(r1, r2)]))
    return Extrinsics(rot, t)


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
    for view in accepted:
        try:
            per_view.append(extrinsics_from_homography(view.homography, intr))
            kept.append(view)
        except BehindCamera:
            flags.append(view.id)
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
    for view in views:
        try:
            per_view.append(extrinsics_from_homography(view.homography, intr))
            kept.append(view)
            samples.extend(focal_from_homography(view.homography, intr.pp))
        except BehindCamera:
            flags.append(view.id)
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
    head = [f, pp.u, pp.v] if fit_intrinsics else []
    body = []
    for extr in poses:
        body.extend(rvec_from_rotation(extr.rot))
        body.extend(extr.t)
    return np.array(head + body)


def _unpack(params: np.ndarray, n_views: int, fit_intrinsics: bool, intr0: Intrinsics):
    if fit_intrinsics:
        f, u0, v0 = params[0], params[1], params[2]
        base = 3
    else:
        f, u0, v0 = intr0.f, intr0.pp.u, intr0.pp.v
        base = 0
    poses = []
    for i in range(n_views):
        off = base + 6 * i
        poses.append((params[off : off + 3], params[off + 3 : off + 6]))
    return f, u0, v0, poses


def _residuals(params, views, fit_intrinsics, intr0) -> np.ndarray:
    f, u0, v0, poses = _unpack(params, len(views), fit_intrinsics, intr0)
    parts = []
    for (rvec, t), view in zip(poses, views):
        rot = rodrigues(rvec)
        pts = np.column_stack([view.board_xy, np.zeros(len(view.board_xy))])
        cam = pts @ rot.T + t
        uv = f * cam[:, :2] / cam[:, 2:3] + np.array([u0, v0])
        parts.append((uv - view.image_uv).ravel())
    return np.concatenate(parts)


def _jacobian(params, views, fit_intrinsics, intr0) -> np.ndarray:
    """Analytic Jacobian of the reprojection residuals.

    Rows alternate (u, v) per corner per view; columns are the optional
    (f, u0, v0) head followed by (rvec, t) per view.
    """
    f, u0, v0, poses = _unpack(params, len(views), fit_intrinsics, intr0)
    n_res = 2 * sum(len(v.board_xy) for v in views)
    n_par = (3 if fit_intrinsics else 0) + 6 * len(views)
    jac = np.zeros((n_res, n_par))
    row = 0
    base = 3 if fit_intrinsics else 0
    for vi, ((rvec, t), view) in enumerate(zip(poses, views)):
        rot = rodrigues(rvec)
        pts = np.column_stack([view.board_xy, np.zeros(len(view.board_xy))])
        cam = pts @ rot.T + t
        n = len(pts)
        x, y, z = cam[:, 0], cam[:, 1], cam[:, 2]

        # d(u, v)/d(cam point), shape (n, 2, 3)
        duv_dq = np.zeros((n, 2, 3))
        duv_dq[:, 0, 0] = f / z
        duv_dq[:, 0, 2] = -f * x / (z * z)
        duv_dq[:, 1, 1] = f / z
        duv_dq[:, 1, 2] = -f * y / (z * z)

        dq_drot = rotate_point_jacobian(rvec, pts)  # (n, 3, 3)
        block = np.einsum("nij,njk->nik", duv_dq, dq_drot)  # (n, 2, 3)

        rows = slice(row, row + 2 * n)
        col = base + 6 * vi
        jac[rows, col : col + 3] = block.reshape(2 * n, 3)
        jac[rows, col + 3 : col + 6] = duv_dq.reshape(2 * n, 3)
        if fit_intrinsics:
            jac[row : row + 2 * n : 2, 0] = x / z
            jac[row + 1 : row + 2 * n : 2, 0] = y / z
            jac[row : row + 2 * n : 2, 1] = 1.0
            jac[row + 1 : row + 2 * n : 2, 2] = 1.0
        row += 2 * n
    return jac


def _levenberg_marquardt(params0, views, fit_intrinsics, intr0, max_iters=LM_MAX_ITERS):
    """Damped Gauss-Newton with a multiplicative lambda schedule:
    x10 on reject, x0.1 on accept, stop on relative cost change < 1e-12."""
    params = params0.copy()
    res = _residuals(params, views, fit_intrinsics, intr0)
    cost = float(res @ res)
    lam = LM_INITIAL_LAMBDA
    converged = False
    iters = 0
    for _ in range(max_iters):
        iters += 1
        jac = _jacobian(params, views, fit_intrinsics, intr0)
        grad = jac.T @ res
        hess = jac.T @ jac
        damping = np.diag(np.maximum(np.diag(hess), 1e-12))
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + lam * damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + step
            trial_res = _residuals(trial, views, fit_intrinsics, intr0)
            trial_cost = float(trial_res @ trial_res)
            if trial_cost <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        rel = (cost - trial_cost) / max(cost, 1e-300)
        params, res, cost = trial, trial_res, trial_cost
        lam = max(lam * 0.1, 1e-12)
        if rel < LM_REL_TOL:
            converged = True
            break
    return params, cost, converged, iters


def refine(result: CalibrationResult, views: Sequence[CalibrationView], max_iters: int = LM_MAX_ITERS) -> CalibrationResult:
    """Levenberg-Marquardt refinement of (f, u0, v0) and all accepted
    per-view poses, minimizing the total squared reprojection error.

    The refined cost never exceeds the starting cost. If the iteration
    budget runs out before the relative cost change drops below 1e-12, the
    best iterate is returned with diagnostics["converged"] = False.
    """
    by_id = {v.id: v for v in views}
    accepted = [by_id[i] for i in result.accepted_ids]
    if len(accepted) < 2:
        raise InsufficientViews("refinement needs at least 2 accepted views")

    params0 = _pack(result.intrinsics.f, result.intrinsics.pp, result.per_view, fit_intrinsics=True)
    params, cost, converged, iters = _levenberg_marquardt(
        params0, accepted, fit_intrinsics=True, intr0=result.intrinsics, max_iters=max_iters
    )
    f, u0, v0, poses = _unpack(params, len(accepted), True, result.intrinsics)
    intr = Intrinsics(f, Point2(u0, v0))
    per_view = tuple(Extrinsics(rodrigues(rvec), np.asarray(t)) for rvec, t in poses)
    n_res = sum(len(v.board_xy) for v in accepted)
    diagnostics = dict(result.diagnostics)
    diagnostics.update(
        {"converged": converged, "lm_iterations": iters, "initial_rmse": result.rmse}
    )
    return CalibrationResult(
        method="refined",
        intrinsics=intr,
        per_view=per_view,
        accepted_ids=result.accepted_ids,
        pp_estimate=result.pp_estimate,
        focal_samples=result.focal_samples,
        rmse=math.sqrt(cost / n_res),
        flags=result.flags,
        diagnostics=diagnostics,
    )


def refit_view_pose(intr: Intrinsics, view: CalibrationView) -> tuple[Extrinsics, float]:
    """Best pose of a single view under frozen intrinsics: closed-form
    decomposition followed by pose-only refinement. Returns the pose and
    its reprojection RMSE."""
    extr0 = extrinsics_from_homography(view.homography, intr)
    params0 = _pack(intr.f, intr.pp, [extr0], fit_intrinsics=False)
    params, cost, _, _ = _levenberg_marquardt(params0, [view], fit_intrinsics=False, intr0=intr)
    _, _, _, poses = _unpack(params, 1, False, intr)
    rvec, t = poses[0]
    extr = Extrinsics(rodrigues(rvec), np.asarray(t))
    return extr, math.sqrt(cost / len(view.board_xy))
