"""Per-cell calibration of a dataset, pose-transfer cross-validation, and
the principal-point trajectory and gravity analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrate import (
    CalibrationResult,
    Cell,
    Intrinsics,
    calibrate_algebraic,
    calibrate_geometric,
    refine,
    refit_view_poses,
)
from .errors import CaliblabError, MissingPose, TooFewPoints
from .geometry import Point2
from .principal_line import DEFAULT_OUTLIER_THRESHOLD_PX
from .synth import Dataset, FocalSetting, PoseLabel

@dataclass(frozen=True)
class TrajectoryReport:
    """Direction and monotonicity of a principal-point series.

    The direction is the total-least-squares line through the points,
    reported in [0, 180) degrees from the image u axis toward +v; the
    monotonicity is the Spearman rank correlation between the setting
    index and the signed arc-length projection onto that axis. Because
    the axis representative is only defined up to 180 degrees, the sign
    of the monotonicity is conventional; its magnitude is the statistic.
    """

    direction_deg: float
    monotonicity: float
    total_shift_px: float
    per_step: tuple[tuple[float, float], ...]
    degenerate: bool = False


@dataclass(frozen=True)
class GravityReport:
    """Per-setting offsets of the tipped poses relative to DOWN."""

    offsets: dict[int, dict[PoseLabel, tuple[float, float]]]
    mean_offset_px: dict[PoseLabel, float]
    sideway_ratio: float


@dataclass(frozen=True)
class DriftReport:
    """The trajectory of the DOWN principal points over the focal settings
    and the gravity offsets of the tipped poses, with a notice for each
    analysis that was skipped."""

    down_indices: tuple[int, ...]  # setting indices of the DOWN series, ascending
    trajectory: TrajectoryReport | None
    gravity: GravityReport | None
    notices: tuple[str, ...]


@dataclass(frozen=True)
class CrossValSetting:
    setting_index: int
    focal_label_mm: float
    poses: tuple[PoseLabel, ...]
    matrix: np.ndarray  # matrix[a, b] = RMSE of pose b's views under pose a's intrinsics
    self_rmse: dict[PoseLabel, float]


@dataclass(frozen=True)
class CrossValReport:
    method: str
    settings: tuple[CrossValSetting, ...]
    notices: tuple[str, ...] = ()

    def absent_fraction(self) -> float:
        total = 0
        absent = 0
        for s in self.settings:
            total += s.matrix.size
            absent += int(np.sum(~np.isfinite(s.matrix)))
        return absent / total if total else 1.0


def calibrate_views(method: str, cell: Cell, pl_outlier_px: float) -> CalibrationResult:
    if method == "geometric":
        return calibrate_geometric(cell, pl_outlier_px=pl_outlier_px)
    if method == "algebraic":
        return calibrate_algebraic(cell)
    if method == "algebraic-refined":
        (result,), (err,) = refine([calibrate_algebraic(cell)])
        if err is not None:
            raise err
        return result
    raise ValueError(f"unknown calibration method {method!r}")


def calibrate_cells(
    dataset: Dataset, method: str, pl_outlier_px: float
) -> dict[tuple[PoseLabel, int], CalibrationResult | CaliblabError]:
    """Calibrate every cell of the dataset, keyed (pose, setting index).

    Poses come in dataset.poses() order and, within a pose, settings by
    focal label. A cell whose calibration fails, an empty one included,
    holds its error in place of a result. With "algebraic-refined" every
    cell is solved algebraically first, and then all cells that succeeded
    are refined in one `refine` call.
    """
    refined = method == "algebraic-refined"
    cells: dict[tuple[PoseLabel, int], CalibrationResult | CaliblabError] = {}
    settings = dataset.settings()
    for pose in dataset.poses():
        for index, setting in enumerate(settings):
            cell = dataset.cells.get((pose, setting))
            if cell is None:
                continue
            try:
                cells[(pose, index)] = calibrate_views("algebraic" if refined else method, cell, pl_outlier_px)
            except CaliblabError as err:
                cells[(pose, index)] = err
    if refined:
        keys = [key for key, result in cells.items() if isinstance(result, CalibrationResult)]
        results, errors = refine([cells[key] for key in keys])
        for key, result, err in zip(keys, results, errors):
            cells[key] = result if err is None else err
    return cells


def _crossval_setting(
    dataset: Dataset,
    setting_index: int,
    setting: FocalSetting,
    poses: list[PoseLabel],
    results: dict[tuple[PoseLabel, int], CalibrationResult | CaliblabError],
) -> tuple[CrossValSetting, list[str]]:
    notices: list[str] = []
    n = len(poses)
    matrix = np.full((n, n), np.nan)
    self_rmse: dict[PoseLabel, float] = {}

    intrinsics: dict[PoseLabel, Intrinsics] = {}
    for pose in poses:
        if not dataset.cells.get((pose, setting)):
            notices.append(f"setting {setting.label_mm} mm: cell for pose {pose.value} is absent")
            continue
        result = results[(pose, setting_index)]
        if isinstance(result, CaliblabError):
            notices.append(f"setting {setting.label_mm} mm: calibration failed for pose {pose.value}: {result}")
            continue
        intrinsics[pose] = result.intrinsics
        self_rmse[pose] = result.rmse

    cells = [(b, pose_b, dataset.cells.get((pose_b, setting))) for b, pose_b in enumerate(poses)]
    cells = [(b, pose_b, cell) for b, pose_b, cell in cells if cell]
    calibrated = [(a, pose_a) for a, pose_a in enumerate(poses) if pose_a in intrinsics]
    # every view of the setting is refit under each calibrated pose's
    # intrinsics, all in one stack
    setting_views = sum(len(cell) for _, _, cell in cells)
    refits = refit_view_poses(
        [intrinsics[pose_a] for _, pose_a in calibrated for _ in range(setting_views)],
        Cell.concat([cell for _, _, cell in cells] * len(calibrated)),
    )
    start = 0
    for a, pose_a in calibrated:
        for b, pose_b, cell in cells:
            rows = slice(start, start + len(cell))
            start += len(cell)
            err = next((e for e in refits.errors[rows] if e is not None), None)
            if err is not None:
                notices.append(
                    f"setting {setting.label_mm} mm: pose refit {pose_a.value}->{pose_b.value} failed: {err}"
                )
                continue
            matrix[a, b] = sum(refits.rmse[rows].tolist()) / len(cell)

    return CrossValSetting(setting_index, setting.label_mm, tuple(poses), matrix, self_rmse), notices


def cross_validate(
    dataset: Dataset,
    method: str = "geometric",
    pl_outlier_px: float = DEFAULT_OUTLIER_THRESHOLD_PX,
) -> CrossValReport:
    """Pose-transfer evaluation per focal setting.

    For each setting, intrinsics are calibrated independently per pose;
    entry (a, b) of the matrix is the mean reprojection RMSE of pose b's
    views with pose a's intrinsics frozen and each view's pose refit. The
    diagonal is computed with the same refit procedure, so the comparison
    is fair. Missing or failing cells leave NaN entries and a notice.
    """
    poses = dataset.poses()
    results = calibrate_cells(dataset, method, pl_outlier_px)
    per_setting = []
    notices: list[str] = []
    for index, setting in enumerate(dataset.settings()):
        entry, batch = _crossval_setting(dataset, index, setting, poses, results)
        per_setting.append(entry)
        notices.extend(batch)
    return CrossValReport(method=method, settings=tuple(per_setting), notices=tuple(notices))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    group = np.cumsum(starts) - 1
    bounds = np.r_[np.flatnonzero(starts), len(values)]
    ranks = np.empty(len(values))
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson's r of the average ranks, NaN
    when either series is constant."""
    ranks = np.column_stack([_average_ranks(np.asarray(x)), _average_ranks(np.asarray(y))])
    if np.any(ranks.min(axis=0) == ranks.max(axis=0)):
        return math.nan
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def analyze_trajectory(pps: list[Point2]) -> TrajectoryReport:
    """Fit the total-least-squares axis through an ordered principal-point
    series and rank-correlate progress along it with the series order.

    Raises TooFewPoints below three points. If all points coincide within
    1e-9 px, or their spread overflows, the direction is undefined and the
    report comes back flagged degenerate with a NaN direction.
    """
    if len(pps) < 3:
        raise TooFewPoints(f"trajectory analysis needs at least 3 points, got {len(pps)}")
    pts = np.array([[p.u, p.v] for p in pps])
    steps = tuple((float(du), float(dv)) for du, dv in np.diff(pts, axis=0))
    total = float(np.linalg.norm(pts[-1] - pts[0]))
    centered = pts - pts.mean(axis=0)
    if not np.all(np.isfinite(centered)) or np.max(np.linalg.norm(centered, axis=1)) < 1e-9:
        return TrajectoryReport(
            direction_deg=float("nan"),
            monotonicity=0.0,
            total_shift_px=total,
            per_step=steps,
            degenerate=True,
        )
    _, _, vt = np.linalg.svd(centered)
    direction = vt[0]
    angle = math.degrees(math.atan2(direction[1], direction[0])) % 180.0
    axis = np.array([math.cos(math.radians(angle)), math.sin(math.radians(angle))])
    arc = centered @ axis
    rho = spearman(np.arange(len(pps)), arc)
    if not math.isfinite(rho):
        rho = 0.0
    return TrajectoryReport(
        direction_deg=angle,
        monotonicity=float(rho),
        total_shift_px=total,
        per_step=steps,
    )


def analyze_gravity(
    pps: dict[tuple[PoseLabel, int], Point2],
    drift_direction: tuple[float, float],
) -> GravityReport:
    """Offsets of the tipped poses relative to DOWN, per focal setting,
    plus how sideway they sit relative to the focal-drift direction.

    The sideway ratio is mean |perpendicular component| over mean
    |parallel component| across all offsets; it is +inf when the parallel
    component vanishes. Raises MissingPose when a setting lacks DOWN.
    """
    setting_indices = sorted({index for _, index in pps})
    norm = math.hypot(*drift_direction)
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("drift direction must be a nonzero finite vector")
    axis = (drift_direction[0] / norm, drift_direction[1] / norm)
    perp_axis = (-axis[1], axis[0])

    offsets: dict[int, dict[PoseLabel, tuple[float, float]]] = {}
    magnitudes: dict[PoseLabel, list[float]] = {}
    para_parts: list[float] = []
    perp_parts: list[float] = []
    for index in setting_indices:
        down = pps.get((PoseLabel.DOWN, index))
        if down is None:
            raise MissingPose(f"no DOWN principal point for setting index {index}")
        row: dict[PoseLabel, tuple[float, float]] = {}
        for pose in (PoseLabel.N, PoseLabel.W, PoseLabel.E):
            pp = pps.get((pose, index))
            if pp is None:
                continue
            du, dv = pp.u - down.u, pp.v - down.v
            row[pose] = (du, dv)
            magnitudes.setdefault(pose, []).append(math.hypot(du, dv))
            para_parts.append(abs(du * axis[0] + dv * axis[1]))
            perp_parts.append(abs(du * perp_axis[0] + dv * perp_axis[1]))
        offsets[index] = row

    mean_para = float(np.mean(para_parts)) if para_parts else 0.0
    mean_perp = float(np.mean(perp_parts)) if perp_parts else 0.0
    if mean_para < 1e-9:
        ratio = math.inf if mean_perp >= 1e-9 else 0.0
    else:
        ratio = mean_perp / mean_para
    return GravityReport(
        offsets=offsets,
        mean_offset_px={pose: float(np.mean(vals)) for pose, vals in magnitudes.items()},
        sideway_ratio=ratio,
    )


def analyze_drift(pps: dict[tuple[PoseLabel, int], Point2], n_poses: int) -> DriftReport:
    """Trajectory and gravity analyses of calibrated principal points
    keyed (pose, setting index), for a dataset of n_poses poses.

    The trajectory runs over the DOWN series when it has 3 or more
    settings. The gravity offsets follow when the trajectory has a drift
    axis (it is not degenerate) and the dataset has 2 or more poses.
    Each analysis that does not run leaves a notice saying why.
    """
    down_indices = tuple(sorted(index for pose, index in pps if pose is PoseLabel.DOWN))
    trajectory = gravity = None
    notices = []
    if len(down_indices) >= 3:
        trajectory = analyze_trajectory([pps[(PoseLabel.DOWN, index)] for index in down_indices])
    else:
        notices.append("trajectory analysis skipped: needs 3 or more DOWN settings")
    if trajectory is not None and not trajectory.degenerate and n_poses >= 2:
        angle = math.radians(trajectory.direction_deg)
        try:
            gravity = analyze_gravity(pps, (math.cos(angle), math.sin(angle)))
        except CaliblabError as err:
            notices.append(f"gravity analysis skipped: {err}")
    else:
        notices.append("gravity analysis skipped: needs 2 or more poses and a drift axis")
    return DriftReport(down_indices, trajectory, gravity, tuple(notices))
