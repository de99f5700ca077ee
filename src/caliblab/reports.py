"""Report writers: CSV tables, a self-contained SVG scatter of principal
points, and a machine-readable JSON summary. All output is deterministic
and written atomically (temp file + rename)."""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

from .errors import ConfigError
from .geometry import Point2
from .synth import PoseLabel

CALIBRATION_CSV_HEADER = [
    "pose",
    "focal_label_mm",
    "method",
    "status",
    "n_views",
    "u0_px",
    "v0_px",
    "f_px",
    "rmse_px",
    "flagged_views",
    "gt_u0_px",
    "gt_v0_px",
    "gt_f_px",
]

TRAJECTORY_CSV_HEADER = [
    "setting_index",
    "focal_label_mm",
    "u0_px",
    "v0_px",
    "step_du_px",
    "step_dv_px",
]

GRAVITY_CSV_HEADER = [
    "setting_index",
    "focal_label_mm",
    "pose",
    "offset_u_px",
    "offset_v_px",
    "offset_mag_px",
]

CROSSVAL_CSV_HEADER = [
    "setting_index",
    "focal_label_mm",
    "intrinsics_pose",
    "eval_pose",
    "rmse_px",
]

_POSE_ORDER = [PoseLabel.DOWN, PoseLabel.N, PoseLabel.W, PoseLabel.E]
_POSE_COLOR = {"DOWN": "#808080", "N": "#d62728", "W": "#1f77b4", "E": "#2ca02c"}


def atomic_write(path, text: str) -> None:
    """Write through a temp file and a rename. A path that cannot be
    written raises ConfigError and leaves no temp file behind."""
    path = Path(path)
    tmp = path.parent / (path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as err:
        if tmp.is_file():
            tmp.unlink()
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from None


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue()


def write_csv(path, header: list[str], rows: list[list]) -> None:
    atomic_write(path, rows_to_csv(header, rows))


def write_json_summary(path, summary: dict) -> None:
    atomic_write(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def render_pp_scatter_svg(pps: dict[tuple[PoseLabel, int], Point2]) -> str:
    """One panel per pose of the principal points keyed (pose, setting
    index), each panel also carrying the DOWN locus in gray for reference;
    a pose's points are drawn in the order given. Coordinates are image
    pixels (v grows downward). The file is self-contained: inline styles,
    no scripts."""
    pp_by_pose: dict[str, list[tuple[int, float, float]]] = {}
    for (pose, index), pp in pps.items():
        pp_by_pose.setdefault(pose.value, []).append((index, pp.u, pp.v))
    poses = [p.value for p in _POSE_ORDER if p.value in pp_by_pose]
    points = [xy for pts in pp_by_pose.values() for xy in pts]
    if points:
        us = [p[1] for p in points]
        vs = [p[2] for p in points]
        lo_u, hi_u = min(us), max(us)
        lo_v, hi_v = min(vs), max(vs)
    else:
        lo_u = hi_u = lo_v = hi_v = 0.0
    pad_u = max(1.0, 0.1 * (hi_u - lo_u))
    pad_v = max(1.0, 0.1 * (hi_v - lo_v))
    lo_u, hi_u = lo_u - pad_u, hi_u + pad_u
    lo_v, hi_v = lo_v - pad_v, hi_v + pad_v

    panel = 320
    margin = 30
    width = margin + len(poses) * (panel + margin)
    height = panel + 2 * margin

    def sx(u, x0):
        return x0 + (u - lo_u) / (hi_u - lo_u) * panel

    def sy(v):
        return margin + (v - lo_v) / (hi_v - lo_v) * panel

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace;font-size:12px;fill:#333}</style>',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    down_pts = pp_by_pose.get("DOWN", [])
    for i, pose in enumerate(poses):
        x0 = margin + i * (panel + margin)
        parts.append(
            f'<rect x="{x0}" y="{margin}" width="{panel}" height="{panel}" '
            'fill="none" stroke="#999999" stroke-width="1"/>'
        )
        parts.append(f'<text x="{x0 + 4}" y="{margin - 8}">pose {pose}</text>')
        if pose != "DOWN":
            for _, u, v in down_pts:
                parts.append(
                    f'<circle cx="{sx(u, x0):.2f}" cy="{sy(v):.2f}" r="3" '
                    'fill="none" stroke="#aaaaaa" stroke-width="1"/>'
                )
        color = _POSE_COLOR.get(pose, "#555555")
        for idx, u, v in pp_by_pose[pose]:
            parts.append(
                f'<circle cx="{sx(u, x0):.2f}" cy="{sy(v):.2f}" r="4" fill="{color}" '
                f'fill-opacity="{0.35 + 0.65 * (idx + 1) / max(1, len(pp_by_pose[pose])):.3f}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
