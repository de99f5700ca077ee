"""Calibration laboratory: geometric (principal-line) and algebraic planar
camera calibration, synthetic drift datasets, and trajectory plus
cross-validation analysis."""

from types import ModuleType as _ModuleType

from .analysis import (
    CrossValReport,
    DriftReport,
    GravityReport,
    TrajectoryReport,
    analyze_drift,
    analyze_gravity,
    analyze_trajectory,
    calibrate_cells,
    calibrate_views,
    cross_validate,
)
from .calibrate import (
    CalibrationResult,
    Cell,
    Intrinsics,
    PoseRefits,
    calibrate_algebraic,
    calibrate_geometric,
    focal_from_homographies,
    refine,
    refit_view_poses,
    views_from_points,
)
from .geometry import (
    Point2,
    estimate_homographies,
)
from .principal_line import (
    PPEstimate,
    estimate_pp,
    flag_outlier_lines,
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
    true_pp,
)

# submodules bind themselves as package attributes; they are not exports
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
