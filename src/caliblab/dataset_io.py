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

from .calibrate import Cell, Intrinsics, views_from_points
from .errors import ConfigError, DegenerateConfiguration
from .geometry import Point2
from .synth import Dataset, FocalSetting, PoseLabel

_FALLBACK_PITCH_UM = 4.0

# Ground-truth f_px, pp_u_px and pp_v_px must not exceed this magnitude: the
# drift analysis of the true principal points takes their differences,
# hypots and means, and below it every one of those stays finite.
TRUTH_MAX_ABS_PX = 1e150


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


# One board corner; "%.9g" formats exactly as format_float does.
_CORNER = '{"x_mm":%.9g,"y_mm":%.9g,"u_px":%.9g,"v_px":%.9g}'


def dumps_dataset(dataset: Dataset) -> str:
    """The dataset file's text, in the layout of the module docstring."""
    out = ['{"camera_id":']
    _emit(dataset.camera_id, out)
    out.append(',"cells":[')
    for i, ((pose, setting), cell) in enumerate(dataset.cells.items()):
        out.append(',{"pose":' if i else '{"pose":')
        _emit(pose.value, out)
        out.append(f',"focal_label_mm":{format_float(float(setting.label_mm))}')
        out.append(f',"focal_px":{format_float(float(setting.f_px))},"views":[')
        # each view's corners go through one template, filled from the
        # (n, 4) rows of its board and image coordinates (the padding is 0)
        rows = np.concatenate([cell.board, cell.image], axis=2)
        bad = ~np.isfinite(rows)
        if bad.any():
            format_float(float(rows[bad][0]))  # raises, naming the value
        views = []
        for k, (view_id, n) in enumerate(zip(cell.ids, cell.count.tolist())):
            corners = ",".join([_CORNER] * n) % tuple(rows[k, :n].ravel().tolist())
            views.append('{"id":%s,"corners":[%s]}' % (json.dumps(view_id), corners))
        out.append(",".join(views) + "]")
        if dataset.ground_truth and (pose, setting) in dataset.ground_truth:
            intr, rvec, t = dataset.ground_truth[(pose, setting)]
            out.append(',"ground_truth":')
            truth = {
                "f_px": float(intr.f),
                "pp_u_px": float(intr.pp.u),
                "pp_v_px": float(intr.pp.v),
                "views": [{"rvec": r, "t_mm": shift} for r, shift in zip(rvec.tolist(), t.tolist())],
            }
            _emit(truth, out)
        out.append("}")
    out.append("]}\n")
    return "".join(out)


def _number(value, field: str) -> float:
    """A JSON number as a float; a string, bool or null is not a number."""
    if type(value) not in (int, float):
        raise ValueError(f"field {field} must be a number, got {type(value).__name__}")
    return float(value)


def _vector(value, field: str) -> np.ndarray:
    """A JSON array as a float array; each element must be a number."""
    bad = [x for x in value if type(x) not in (int, float)] if isinstance(value, list) else []
    if bad:
        raise ValueError(f"field {field} must hold only numbers, got {type(bad[0]).__name__}")
    return np.array(value, dtype=float)


_CORNER_FIELDS = ("x_mm", "y_mm", "u_px", "v_px")


def _corner_rows(corners) -> np.ndarray:
    """The (n, 4) board and image coordinates of a view's corner objects."""
    rows = [(c["x_mm"], c["y_mm"], c["u_px"], c["v_px"]) for c in corners]
    if not {type(x) for row in rows for x in row} <= {int, float}:
        for k, row in enumerate(rows):
            for name, x in zip(_CORNER_FIELDS, row):
                _number(x, f"{name} of corner {k}")
    return np.array(rows, dtype=float).reshape(-1, 4)


def _parse_cell(index: int, node: dict) -> tuple[PoseLabel, FocalSetting, Cell, tuple | None]:
    """Parse one cell; any malformed field raises ConfigError naming the
    cell index and, inside a view, the view id. Every numeric field must
    be a JSON number: a string or a bool in its place is malformed."""
    where = f"cell {index}"
    try:
        pose = PoseLabel(node["pose"])
        label = _number(node["focal_label_mm"], "focal_label_mm")
        f_px = _number(node["focal_px"], "focal_px") if "focal_px" in node else label * 1000.0 / _FALLBACK_PITCH_UM
        setting = FocalSetting(label, f_px)
        ids, boards, images = [], [], []
        for vnode in node["views"]:
            where = f"cell {index}, view {len(ids)}"  # by position until the id is read
            view_id = str(vnode["id"])
            where = f"cell {index}, view {view_id}"
            if view_id in ids:
                raise ValueError("duplicate view id")
            rows = _corner_rows(vnode["corners"])
            boards.append(rows[:, :2])
            images.append(rows[:, 2:])
            ids.append(view_id)
        cell, errors = views_from_points(ids, boards, images)
        for view_id, err in zip(ids, errors):
            if err is not None:
                where = f"cell {index}, view {view_id}"
                raise err
        where = f"cell {index}, ground truth"
        truth = None
        if "ground_truth" in node:
            g = node["ground_truth"]
            f, u, v = (_number(g[name], name) for name in ("f_px", "pp_u_px", "pp_v_px"))
            if not all(abs(x) <= TRUTH_MAX_ABS_PX for x in (f, u, v)):  # NaN fails too
                raise ValueError(f"f_px, pp_u_px and pp_v_px must be finite and at most {TRUTH_MAX_ABS_PX:g} in size")
            intr = Intrinsics(f, Point2(u, v))
            rvec = [_vector(e["rvec"], f"rvec of view {k}") for k, e in enumerate(g["views"])]
            t = [_vector(e["t_mm"], f"t_mm of view {k}") for k, e in enumerate(g["views"])]
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
            if len(t) != len(cell):
                raise ValueError("ground truth view count does not match the cell's views")
            truth = (intr, rvec, t)
    except KeyError as err:
        raise ConfigError(f"malformed dataset at {where}: missing field {err}") from None
    except (TypeError, ValueError, OverflowError, ConfigError, DegenerateConfiguration) as err:
        raise ConfigError(f"malformed dataset at {where}: {err}") from None
    return pose, setting, cell, truth


def loads_dataset(text: str) -> Dataset:
    try:
        root = json.loads(text)
    except ValueError as err:  # a JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"dataset file is not valid JSON: {err}") from None
    if not isinstance(root, dict) or not isinstance(root.get("cells"), list):
        raise ConfigError("dataset file must be an object with a 'cells' array")
    if not root["cells"]:
        raise ConfigError("dataset has no cells")
    cells = {}
    truth = {}
    for index, node in enumerate(root["cells"]):
        pose, setting, cell, cell_truth = _parse_cell(index, node)
        key = (pose, setting)
        if key in cells:
            raise ConfigError(f"duplicate cell for pose {pose.value}, setting {setting.label_mm} mm")
        cells[key] = cell
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
