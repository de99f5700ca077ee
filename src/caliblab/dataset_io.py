"""Dataset file format: one JSON document per dataset.

Layout:

    {"camera_id": ..., "cells": [
        {"pose": "DOWN", "focal_label_mm": 18, "focal_px": 4500,
         "views": [{"id": ..., "corners": [
             {"x_mm": ..., "y_mm": ..., "u_px": ..., "v_px": ...}, ...]}],
         "ground_truth": {"f_px": ..., "pp_u_px": ..., "pp_v_px": ...,
                          "views": [{"rvec": [...], "t_mm": [...]}, ...]}}]}

Floats are written as decimals with 9 significant digits, corners row
major from the board origin, ground-truth rotations as axis-angle
vectors. Ground truth is read back in that stored form (axis-angle
vectors and translations) and writing is deterministic, so write -> read
-> write round trips byte for byte.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .calibrate import CalibrationView, Intrinsics, views_from_points
from .errors import ConfigError, DegenerateConfiguration
from .geometry import Point2
from .synth import Dataset, FocalSetting, PoseLabel

_FALLBACK_PITCH_UM = 4.0


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.9g}"


def _emit(node: Any, out: list[str]) -> None:
    if isinstance(node, dict):
        out.append("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for i, value in enumerate(node):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    elif isinstance(node, bool) or node is None:
        out.append(json.dumps(node))
    elif isinstance(node, int):
        out.append(str(node))
    elif isinstance(node, float):
        out.append(format_float(node))
    elif isinstance(node, str):
        out.append(json.dumps(node))
    else:
        raise TypeError(f"cannot serialize {type(node)!r}")


def dumps_json(node: Any) -> str:
    out: list[str] = []
    _emit(node, out)
    out.append("\n")
    return "".join(out)


def _view_node(view: CalibrationView) -> dict:
    corners = [
        {"x_mm": x, "y_mm": y, "u_px": u, "v_px": v}
        for (x, y), (u, v) in zip(view.board_xy.tolist(), view.image_uv.tolist())
    ]
    return {"id": view.id, "corners": corners}


def dataset_to_node(dataset: Dataset) -> dict:
    cells = []
    for (pose, setting), views in dataset.cells.items():
        node: dict[str, Any] = {
            "pose": pose.value,
            "focal_label_mm": float(setting.label_mm),
            "focal_px": float(setting.f_px),
            "views": [_view_node(v) for v in views],
        }
        if dataset.ground_truth and (pose, setting) in dataset.ground_truth:
            intr, rvec, t = dataset.ground_truth[(pose, setting)]
            node["ground_truth"] = {
                "f_px": float(intr.f),
                "pp_u_px": float(intr.pp.u),
                "pp_v_px": float(intr.pp.v),
                "views": [{"rvec": r, "t_mm": shift} for r, shift in zip(rvec.tolist(), t.tolist())],
            }
        cells.append(node)
    return {"camera_id": dataset.camera_id, "cells": cells}


def dumps_dataset(dataset: Dataset) -> str:
    return dumps_json(dataset_to_node(dataset))


def _parse_cell(index: int, node: dict) -> tuple[PoseLabel, FocalSetting, tuple, tuple | None]:
    """Parse one cell; any malformed field raises ConfigError naming the
    cell index and, inside a view, the view id."""
    where = f"cell {index}"
    try:
        pose = PoseLabel(node["pose"])
        label = float(node["focal_label_mm"])
        f_px = float(node.get("focal_px", label * 1000.0 / _FALLBACK_PITCH_UM))
        setting = FocalSetting(label, f_px)
        ids, boards, images = [], [], []
        for vnode in node["views"]:
            where = f"cell {index}, view {len(ids)}"  # by position until the id is read
            view_id = str(vnode["id"])
            where = f"cell {index}, view {view_id}"
            if view_id in ids:
                raise ValueError("duplicate view id")
            corners = vnode["corners"]
            boards.append(np.array([[c["x_mm"], c["y_mm"]] for c in corners], dtype=float))
            images.append(np.array([[c["u_px"], c["v_px"]] for c in corners], dtype=float))
            ids.append(view_id)
        views, errors = views_from_points(ids, boards, images)
        for view_id, err in zip(ids, errors):
            if err is not None:
                where = f"cell {index}, view {view_id}"
                raise err
        where = f"cell {index}, ground truth"
        truth = None
        if "ground_truth" in node:
            g = node["ground_truth"]
            intr = Intrinsics(float(g["f_px"]), Point2(float(g["pp_u_px"]), float(g["pp_v_px"])))
            rvec = [np.array(e["rvec"], dtype=float) for e in g["views"]]
            t = [np.array(e["t_mm"], dtype=float) for e in g["views"]]
            if any(r.shape != (3,) for r in rvec):
                raise ValueError("a ground-truth rvec needs 3 components")
            if any(shift.shape != (3,) for shift in t):
                raise ValueError("a ground-truth t_mm must be a 3-vector translation")
            rvec, t = np.array(rvec).reshape(-1, 3), np.array(t).reshape(-1, 3)
            if not (np.all(np.isfinite(rvec)) and np.all(np.isfinite(t))):
                raise ValueError("ground-truth poses must be finite")
            behind = np.flatnonzero(t[:, 2] <= 0.0)
            if behind.size:
                raise ValueError(f"board must lie in front of the camera, got t_z = {t[behind[0], 2]}")
            if len(t) != len(views):
                raise ValueError("ground truth view count does not match the cell's views")
            truth = (intr, rvec, t)
    except KeyError as err:
        raise ConfigError(f"malformed dataset at {where}: missing field {err}") from None
    except (TypeError, ValueError, ConfigError, DegenerateConfiguration) as err:
        raise ConfigError(f"malformed dataset at {where}: {err}") from None
    return pose, setting, tuple(views), truth


def loads_dataset(text: str) -> Dataset:
    try:
        root = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"dataset file is not valid JSON: {err}") from None
    if not isinstance(root, dict) or not isinstance(root.get("cells"), list):
        raise ConfigError("dataset file must be an object with a 'cells' array")
    if not root["cells"]:
        raise ConfigError("dataset has no cells")
    cells = {}
    truth = {}
    for index, node in enumerate(root["cells"]):
        pose, setting, views, cell_truth = _parse_cell(index, node)
        key = (pose, setting)
        if key in cells:
            raise ConfigError(f"duplicate cell for pose {pose.value}, setting {setting.label_mm} mm")
        cells[key] = views
        if cell_truth is not None:
            truth[key] = cell_truth
    return Dataset(
        camera_id=str(root.get("camera_id", "unknown")),
        cells=cells,
        ground_truth=truth or None,
    )


def write_dataset(path, dataset: Dataset) -> None:
    from .reports import atomic_write

    atomic_write(path, dumps_dataset(dataset))


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_dataset(fh.read())
