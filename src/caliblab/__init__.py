"""Calibration laboratory: geometric (principal-line) and algebraic planar
camera calibration, synthetic drift datasets, and trajectory plus
cross-validation analysis."""

from .analysis import (
    CrossValReport,
    GravityReport,
    TrajectoryReport,
    analyze_gravity,
    analyze_trajectory,
    calibrate_views,
    cross_validate,
)
from .calibrate import (
    CalibrationResult,
    CalibrationView,
    Extrinsics,
    Intrinsics,
    PoseRefits,
    calibrate_algebraic,
    calibrate_geometric,
    extrinsics_from_homography,
    focal_from_homography,
    project_points,
    refine,
    refit_view_pose,
    refit_view_poses,
    view_rmse,
    views_from_points,
)
from .geometry import (
    Homography,
    Line2,
    Point2,
    estimate_homographies,
    estimate_homography,
    symmetric_transfer_error,
)
from .principal_line import (
    PPEstimate,
    PrincipalLine,
    estimate_pp,
    flag_outlier_lines,
    principal_line,
    principal_lines,
)
from .synth import (
    CAMERA_PRESETS,
    Dataset,
    DriftModel,
    FocalSetting,
    PoseLabel,
    SceneConfig,
    generate_cell,
    generate_dataset,
    generate_view,
    true_pp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
