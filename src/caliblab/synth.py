"""Synthetic checkerboard datasets with ground truth.

The generator reproduces the capture protocol used throughout the
analysis: board elevated at a dihedral angle near 45 degrees, eight rolls
spaced by 45 degrees, the image center aimed at the board center, one
cell of views per (camera pose, focal setting). Two principal-point drift
phenomena are injected into the ground truth: a focal-length-driven drift
along a fixed direction, and a small pose-driven (gravity) offset for the
tipped N/W/E poses. Pose changes also rotate the camera itself, so the
view geometry and the intrinsics both differ across poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .calibrate import Cell, Intrinsics, _board_points, _project, views_from_points
from .errors import BoardOutOfView, ConfigError
from .geometry import Point2
from .rotations import rot_x, rot_y, rot_z, rvec_from_rotation

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(seed: int, pose_index: int, setting_index: int, roll_index: int) -> int:
    """Per-view sub-seed: splitmix64 folded over (seed, pose, setting, roll).

    The mixer is part of the dataset contract; datasets are reproducible
    bit for bit from (config, seed) across releases.
    """
    state = seed & _MASK64
    for word in (pose_index, setting_index, roll_index):
        state = _splitmix64(state ^ (word & _MASK64))
    return state


def _require_finite(what: str, **values) -> None:
    """ConfigError naming the first field whose value, or any of whose
    values for a sequence, is not a finite number (a bool is not one)."""
    for name, value in values.items():
        for x in value if isinstance(value, (tuple, list)) else (value,):
            try:
                finite = not isinstance(x, bool) and math.isfinite(x)
            except (TypeError, OverflowError):  # an int beyond float range overflows
                finite = False
            if not finite:
                raise ConfigError(f"{what} {name} must be a finite number, got {x!r}")


class PoseLabel(Enum):
    DOWN = "DOWN"
    N = "N"
    W = "W"
    E = "E"


@dataclass(frozen=True)
class FocalSetting:
    """One zoom setting: the nominal lens marking and the true focal
    length in pixels (the normative value; the label is cosmetic)."""

    label_mm: float
    f_px: float

    def __post_init__(self):
        if not (math.isfinite(self.f_px) and self.f_px > 0.0):
            raise ConfigError(f"focal setting must have f_px > 0, got {self.f_px}")
        _require_finite("focal setting", label_mm=self.label_mm)


# Unit gravity offsets per pose, in image axes (u right, v down). Tipping
# the lens makes the in-image gravity component point toward -v for N and
# along -u/+u for W/E; the principal point moves opposite that component.
_GRAVITY_OFFSET = {
    PoseLabel.DOWN: (0.0, 0.0),
    PoseLabel.N: (0.0, 1.0),
    PoseLabel.W: (1.0, 0.0),
    PoseLabel.E: (-1.0, 0.0),
}


@dataclass(frozen=True)
class DriftModel:
    """Ground-truth principal-point motion across focal settings and poses."""

    pp0: Point2
    drift_dir: tuple[float, float] = (math.sin(math.radians(22.5)), -math.cos(math.radians(22.5)))
    drift_total: float = 120.0
    drift_profile: str = "linear"
    gravity_px: float = 15.0
    pose_tilt_deg: float = 10.0
    flip_gravity: bool = False

    def __post_init__(self):
        _require_finite(
            "drift", drift_total=self.drift_total, gravity_px=self.gravity_px, pose_tilt_deg=self.pose_tilt_deg
        )
        norm = math.hypot(*self.drift_dir)
        if norm == 0.0 or not math.isfinite(norm):
            raise ConfigError("drift direction must be a nonzero finite vector")
        object.__setattr__(self, "drift_dir", (self.drift_dir[0] / norm, self.drift_dir[1] / norm))
        if self.drift_profile not in ("linear", "saturating"):
            raise ConfigError(f"unknown drift profile {self.drift_profile!r}")
        if self.drift_total < 0.0 or self.gravity_px < 0.0:
            raise ConfigError("drift_total and gravity_px must be nonnegative")
        if not isinstance(self.flip_gravity, bool):
            raise ConfigError(f"flip_gravity must be true or false, got {self.flip_gravity!r}")


def true_pp(drift: DriftModel, setting_index: int, n_settings: int, pose: PoseLabel) -> Point2:
    """Ground-truth principal point for one (setting, pose) cell.

    The focal-driven displacement grows with the setting index along
    drift_dir, linearly or saturating toward drift_total; the pose adds a
    fixed gravity offset. DOWN at index 0 returns pp0 exactly.
    """
    if not 0 <= setting_index < n_settings:
        raise ConfigError(f"setting index {setting_index} outside 0..{n_settings - 1}")
    if n_settings == 1:
        g = 0.0
    else:
        frac = setting_index / (n_settings - 1)
        if drift.drift_profile == "linear":
            g = drift.drift_total * frac
        else:
            g = drift.drift_total * (1.0 - math.exp(-3.0 * frac)) / (1.0 - math.exp(-3.0))
    ou, ov = _GRAVITY_OFFSET[pose]
    sign = -1.0 if drift.flip_gravity else 1.0
    return Point2(
        drift.pp0.u + drift.drift_dir[0] * g + sign * drift.gravity_px * ou,
        drift.pp0.v + drift.drift_dir[1] * g + sign * drift.gravity_px * ov,
    )


@dataclass(frozen=True)
class CameraPreset:
    description: str
    image_width: int
    image_height: int
    focal_labels_mm: tuple[float, ...]
    pixel_pitch_um: float = 4.0

    def focal_settings(self) -> tuple[FocalSetting, ...]:
        # f_px = f_mm / pitch; labels are cosmetic, f_px is normative
        return tuple(
            FocalSetting(mm, mm * 1000.0 / self.pixel_pitch_um) for mm in self.focal_labels_mm
        )


CAMERA_PRESETS = {
    "cam1": CameraPreset("24 MP DSLR, 18-50 mm zoom", 6048, 4024, (18, 22, 24, 27, 30, 35, 50)),
    "cam2": CameraPreset("18 MP DSLR, 18-50 mm zoom", 5184, 3456, (18, 23, 28, 30, 34, 39, 42)),
    "cam3": CameraPreset("24 MP mirrorless, 28-70 mm zoom", 6000, 3376, (33, 40, 44, 50, 55, 60, 65)),
    "cam4": CameraPreset("24 MP mirrorless, 16-50 mm zoom", 6000, 3376, (16, 21, 26, 33, 38, 45, 50)),
}

DEFAULT_ROLLS = tuple(float(k * 45) for k in range(8))
_BOARD_RETRIES = 5


def _default_settings() -> tuple[FocalSetting, ...]:
    return CAMERA_PRESETS["cam1"].focal_settings()


def _default_drift() -> DriftModel:
    return DriftModel(pp0=Point2(6048 / 2, 4024 / 2))


@dataclass(frozen=True)
class SceneConfig:
    """Everything needed to generate one synthetic dataset."""

    camera_id: str = "cam1"
    board_cols: int = 9  # inner corners across
    board_rows: int = 6  # inner corners down
    square_mm: float = 25.0
    image_width: int = 6048
    image_height: int = 4024
    tilt_deg: float = 45.0  # dihedral angle between board and image plane
    rolls: tuple[float, ...] = DEFAULT_ROLLS
    noise_sigma_px: float = 0.5
    rng_seed: int = 0
    focal_settings: tuple[FocalSetting, ...] = field(default_factory=_default_settings)
    poses: tuple[PoseLabel, ...] = (PoseLabel.DOWN, PoseLabel.N, PoseLabel.W, PoseLabel.E)
    drift: DriftModel = field(default_factory=_default_drift)
    fill_fraction: float = 0.6

    def __post_init__(self):
        if not isinstance(self.camera_id, str):
            raise ConfigError(f"camera_id must be a string, got {self.camera_id!r}")
        _require_finite(
            "scene",
            board_cols=self.board_cols,
            board_rows=self.board_rows,
            square_mm=self.square_mm,
            image_width=self.image_width,
            image_height=self.image_height,
            tilt_deg=self.tilt_deg,
            noise_sigma_px=self.noise_sigma_px,
            fill_fraction=self.fill_fraction,
            rolls=self.rolls,
        )
        integers = {
            "board_cols": self.board_cols,
            "board_rows": self.board_rows,
            "image_width": self.image_width,
            "image_height": self.image_height,
            "rng_seed": self.rng_seed,
        }
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.board_cols < 2 or self.board_rows < 2:
            raise ConfigError("board needs at least 2x2 inner corners")
        if self.square_mm <= 0.0:
            raise ConfigError("square size must be positive")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ConfigError("image dimensions must be positive")
        if not 0.0 < self.tilt_deg < 90.0:
            raise ConfigError(
                f"dihedral angle (tilt_deg) must lie strictly between 0 and 90 degrees, "
                f"got {self.tilt_deg} (0 removes all perspective, 90 collapses the board)"
            )
        if len(self.rolls) < 2:
            raise ConfigError("need at least 2 roll angles")
        labels = [f"{roll:g}" for roll in self.rolls]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"roll angles must give distinct view labels (rounded to 6 digits), got {labels}")
        if self.noise_sigma_px < 0.0:
            raise ConfigError("noise sigma must be nonnegative")
        if not self.focal_settings:
            raise ConfigError("need at least one focal setting")
        labels = [s.label_mm for s in self.focal_settings]
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ConfigError("focal settings must be strictly increasing in label_mm")
        if not self.poses:
            raise ConfigError("need at least one pose")
        if len(set(self.poses)) != len(self.poses):
            raise ConfigError("poses must be distinct")
        if not 0.0 < self.fill_fraction <= 0.95:
            raise ConfigError("fill fraction must lie in (0, 0.95]")

    @classmethod
    def for_camera(cls, camera_id: str, **overrides) -> "SceneConfig":
        try:
            preset = CAMERA_PRESETS[camera_id]
        except (KeyError, TypeError):
            raise ConfigError(
                f"unknown camera preset {camera_id!r}; available: {sorted(CAMERA_PRESETS)}"
            ) from None
        base = dict(
            camera_id=camera_id,
            image_width=preset.image_width,
            image_height=preset.image_height,
            focal_settings=preset.focal_settings(),
            drift=DriftModel(pp0=Point2(preset.image_width / 2, preset.image_height / 2)),
        )
        base.update(overrides)
        return cls(**base)

    def board_grid(self) -> np.ndarray:
        """Inner-corner coordinates in mm, row major from the board origin."""
        xs = np.arange(self.board_cols) * self.square_mm
        ys = np.arange(self.board_rows) * self.square_mm
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Views and (for synthetic data) ground truth, one cell per
    (pose, focal setting). A cell's ground truth is its intrinsics and
    the board poses of its views in the form the dataset file stores:
    axis-angle rvec (V, 3) and translation t (V, 3), row i for view i."""

    camera_id: str
    cells: dict[tuple[PoseLabel, FocalSetting], Cell]
    ground_truth: dict[tuple[PoseLabel, FocalSetting], tuple[Intrinsics, np.ndarray, np.ndarray]] | None

    def poses(self) -> list[PoseLabel]:
        """The poses of the cells, in order of first appearance."""
        return list(dict.fromkeys(pose for pose, _ in self.cells))

    def settings(self) -> list[FocalSetting]:
        """The focal settings of the cells, by focal label."""
        return sorted(dict.fromkeys(setting for _, setting in self.cells), key=lambda s: s.label_mm)

    def n_views(self) -> int:
        return sum(len(cell) for cell in self.cells.values())


# Extra camera rotation for the tipped poses: N pitches about the image
# x axis, W/E yaw about the image y axis. The exact signs are a
# convention; the modeled gravity offset is injected independently.
def _pose_rotation(pose: PoseLabel, tilt_deg: float) -> np.ndarray:
    if pose is PoseLabel.DOWN:
        return np.eye(3)
    if pose is PoseLabel.N:
        return rot_x(-tilt_deg)
    if pose is PoseLabel.W:
        return rot_y(tilt_deg)
    return rot_y(-tilt_deg)


def generate_cell(
    config: SceneConfig,
    pose: PoseLabel,
    setting: FocalSetting,
    rolls: Sequence[float],
    rngs: Sequence[np.random.Generator],
) -> tuple[Cell, np.ndarray, np.ndarray]:
    """Synthetic views of one (pose, setting) cell, one per roll, plus
    their ground-truth rotations (V, 3, 3) and translations (V, 3);
    rngs[i] draws the noise of roll i.

    The board is tilted by the dihedral angle, rolled about the optical
    axis, and placed so its center projects to the image center at a
    distance that makes it span the configured fill fraction. Every roll
    with a corner outside the image (with a 6 sigma + 1 px noise margin)
    or not in front of the camera has its distance grown by 30 percent,
    up to 5 retries. All rolls are placed, projected and turned into views
    as stacks; each roll's result is the one a cell of that roll alone
    gives. Raises BoardOutOfView naming the first roll that does not fit.
    """
    try:
        setting_index = config.focal_settings.index(setting)
    except ValueError:
        raise ConfigError(f"setting {setting} is not part of the configuration") from None
    pp = true_pp(config.drift, setting_index, len(config.focal_settings), pose)
    count = len(rolls)
    if len(rngs) != count:
        raise ValueError(f"need one noise generator per roll, got {len(rngs)} for {count} rolls")

    board = config.board_grid()
    center = board.mean(axis=0)
    roll_rots = np.array([rot_z(roll) for roll in rolls]).reshape(count, 3, 3)
    rots = _pose_rotation(pose, config.drift.pose_tilt_deg) @ roll_rots @ rot_x(config.tilt_deg)

    # Aim the image center at the board center.
    aim = np.array(
        [
            (config.image_width / 2 - pp.u) / setting.f_px,
            (config.image_height / 2 - pp.v) / setting.f_px,
            1.0,
        ]
    )
    span_w = (config.board_cols - 1) * config.square_mm
    span_h = (config.board_rows - 1) * config.square_mm
    distance = setting.f_px * max(span_w / config.image_width, span_h / config.image_height)
    distance /= config.fill_fraction
    distances = np.full(count, distance)

    margin = 6.0 * config.noise_sigma_px + 1.0
    center3 = np.array([center[0], center[1], 0.0])
    pts = _board_points(board)
    t = np.empty((count, 3))
    uv = np.empty((count, len(board), 2))
    pending = np.arange(count)
    for _ in range(_BOARD_RETRIES + 1):
        trial_t = distances[pending, None] * aim - rots[pending] @ center3
        # a corner on or behind the camera plane does not fit either
        with np.errstate(divide="ignore", invalid="ignore"):
            cam, trial_uv = _project(setting.f_px, (pp.u, pp.v), rots[pending], trial_t, pts)
        u, v = trial_uv[..., 0], trial_uv[..., 1]
        fits = np.all(
            (cam[..., 2] > 0.0)
            & (u >= margin)
            & (u <= config.image_width - margin)
            & (v >= margin)
            & (v <= config.image_height - margin),
            axis=-1,
        )
        t[pending[fits]], uv[pending[fits]] = trial_t[fits], trial_uv[fits]
        pending = pending[~fits]
        if not pending.size:
            break
        distances[pending] *= 1.3
    if pending.size:
        raise BoardOutOfView(
            f"board does not fit the image for pose {pose.value}, setting {setting.label_mm} mm, "
            f"roll {rolls[pending[0]]}"
        )

    if config.noise_sigma_px > 0.0:
        for i, rng in enumerate(rngs):
            uv[i] += rng.normal(0.0, config.noise_sigma_px, size=uv[i].shape)
    view_ids = [f"{pose.value}-s{setting_index}-r{roll:g}" for roll in rolls]
    cell, errors = views_from_points(view_ids, [board] * count, uv)
    for err in errors:
        if err is not None:
            raise err
    return cell, rots, t


def generate_dataset(config: SceneConfig) -> Dataset:
    """Full dataset over poses x settings x rolls, reproducible from the
    configured seed. Each cell carries its ground-truth intrinsics and
    per-view axis-angle rvec and translation t."""
    cells: dict[tuple[PoseLabel, FocalSetting], Cell] = {}
    truth: dict[tuple[PoseLabel, FocalSetting], tuple[Intrinsics, np.ndarray, np.ndarray]] = {}
    for pose_index, pose in enumerate(config.poses):
        for setting_index, setting in enumerate(config.focal_settings):
            rngs = [
                np.random.default_rng(mix_seed(config.rng_seed, pose_index, setting_index, roll_index))
                for roll_index in range(len(config.rolls))
            ]
            try:
                cell, rot, t = generate_cell(config, pose, setting, config.rolls, rngs)
            except BoardOutOfView as err:
                raise BoardOutOfView(
                    f"cell (pose {pose.value}, setting {setting.label_mm} mm): {err}"
                ) from err
            intr = Intrinsics(
                setting.f_px,
                true_pp(config.drift, setting_index, len(config.focal_settings), pose),
            )
            cells[(pose, setting)] = cell
            truth[(pose, setting)] = (intr, rvec_from_rotation(rot), t)
    return Dataset(camera_id=config.camera_id, cells=cells, ground_truth=truth)


def _json_list(name: str, raw) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"scene {name} must be a list, got {raw!r}")
    return raw


def _focal_setting(node) -> FocalSetting:
    if not isinstance(node, dict):
        raise ConfigError(f"a focal setting must be an object with label_mm and f_px, got {node!r}")
    try:
        return FocalSetting(float(node["label_mm"]), float(node["f_px"]))
    except KeyError as err:
        raise ConfigError(f"focal setting is missing {err}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"invalid focal setting: {err}") from None


def scene_config_from_dict(raw: dict) -> SceneConfig:
    """Build a SceneConfig from parsed JSON, rejecting unknown keys and
    fields of the wrong JSON type."""
    if not isinstance(raw, dict):
        raise ConfigError("scene configuration must be a JSON object")
    data = dict(raw)
    camera = data.pop("camera", None)
    drift_raw = data.pop("drift", None)
    settings_raw = data.pop("focal_settings", None)
    poses_raw = data.pop("poses", None)
    rolls_raw = data.pop("rolls", None)

    known = {
        "camera_id",
        "board_cols",
        "board_rows",
        "square_mm",
        "image_width",
        "image_height",
        "tilt_deg",
        "noise_sigma_px",
        "rng_seed",
        "fill_fraction",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown scene configuration keys: {sorted(unknown)}")

    if camera is not None:
        base = SceneConfig.for_camera(camera)
    else:
        base = SceneConfig()
    kwargs = dict(data)
    if rolls_raw is not None:
        try:
            kwargs["rolls"] = tuple(float(r) for r in _json_list("rolls", rolls_raw))
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"invalid scene rolls: {err}") from None
    if poses_raw is not None:
        try:
            kwargs["poses"] = tuple(PoseLabel(p) for p in _json_list("poses", poses_raw))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"unknown pose label: {err}") from None
    if settings_raw is not None:
        kwargs["focal_settings"] = tuple(_focal_setting(s) for s in _json_list("focal_settings", settings_raw))
    if drift_raw is not None:
        if not isinstance(drift_raw, dict):
            raise ConfigError(f"invalid drift model: must be an object, got {drift_raw!r}")
        drift_kwargs = dict(drift_raw)
        if "pp0" in drift_kwargs:
            try:
                u, v = drift_kwargs.pop("pp0")
                drift_kwargs["pp0"] = Point2(float(u), float(v))
            except (TypeError, ValueError, OverflowError) as err:
                raise ConfigError(f"invalid drift model: pp0: {err}") from None
        else:
            drift_kwargs["pp0"] = base.drift.pp0
        if "drift_dir" in drift_kwargs:
            try:
                u, v = drift_kwargs["drift_dir"]
                drift_kwargs["drift_dir"] = (float(u), float(v))
            except (TypeError, ValueError, OverflowError) as err:
                raise ConfigError(f"invalid drift model: drift_dir: {err}") from None
        try:
            kwargs["drift"] = DriftModel(**drift_kwargs)
        except TypeError as err:
            raise ConfigError(f"invalid drift model: {err}") from None
    try:
        return replace(base, **kwargs)
    except TypeError as err:
        raise ConfigError(f"invalid scene configuration: {err}") from None
