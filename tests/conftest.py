"""Shared fixtures and independent oracle helpers.

The helpers below compute expected values from first principles (plain
pinhole algebra in numpy) so that tests never check the package against
itself where an independent route exists.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from caliblab.calibrate import views_from_points


def only(stacked):
    """The one result of a stacked call on a stack of one: the item of its
    (results, errors) pair, or the item's error raised."""
    (result,), (error,) = stacked
    if error is not None:
        raise error
    return result


def build_cell(view_ids, boards, images):
    """The cell of views_from_points, or the first view's error raised."""
    cell, errors = views_from_points(view_ids, boards, images)
    for error in errors:
        if error is not None:
            raise error
    return cell


def view_points(cell, row):
    """The real (n, 2) board and image corners of the cell's view at row."""
    n = cell.count[row]
    return cell.board[row, :n], cell.image[row, :n]


def short_view(cell, row, corners=27):
    """A one-view cell, id "short", of the first corners of the cell's view at row."""
    board, image = view_points(cell, row)
    return build_cell(["short"], [board[:corners]], [image[:corners]])


def with_image(cell, row, image_uv):
    """The cell rebuilt with the image corners of its view at row replaced."""
    boards, images = zip(*(view_points(cell, i) for i in range(len(cell))))
    return build_cell(cell.ids, boards, [image_uv if i == row else uv for i, uv in enumerate(images)])


def joint_stack(result):
    """One cell's joint-refine stack: board points (1, V, n, 3) and image
    corners (1, V, n, 2) of the result's accepted views, the (V, n) mask
    of real corners, and the packed parameters (1, 3 + 12V)."""
    from caliblab.calibrate import _board_points, _pack

    views = result.views
    params = _pack(result.intrinsics.f, result.intrinsics.pp, result.rot, result.t)[None]
    return _board_points(views.board[None]), views.image[None], views.mask, params


def retraction_differences(residuals, retract, params, head) -> np.ndarray:
    """Central differences (B, m, S) of the residuals of problems params
    (B, head + 12V) along each step coordinate k of the retraction:
    (r(retract(x, h e_k)) - r(retract(x, -h e_k))) / 2h. The steps are
    the head parameters, then (delta, dt) per pose, and h is 1e-6 times
    max(1, |x|) for a head parameter or a translation, 1e-6 for a rotation."""
    poses = params[:, head:].reshape(len(params), -1, 12)
    magnitude = np.concatenate([np.zeros(poses.shape[:-1] + (3,)), poses[..., 9:]], axis=-1)
    h = 1e-6 * np.maximum(1.0, np.abs(np.concatenate([params[:, :head], magnitude.reshape(len(params), -1)], axis=1)))
    rows = np.arange(len(params))
    columns = []
    for k in range(h.shape[1]):
        step = np.zeros_like(h)
        step[:, k] = h[:, k]
        diff = residuals(retract(params, step), rows) - residuals(retract(params, -step), rows)
        columns.append(diff / (2 * h[:, k, None]))
    return np.stack(columns, axis=-1)


def shared_camera(n_problems):
    """The camera map of `refine` for a stack of n_problems: every view's
    (f, u0, v0) is its problem's first 3 parameters (P = 3)."""
    return np.eye(3)[None], np.zeros((n_problems, 1, 3))


def frozen_cameras(intrinsics):
    """The camera map of `refit_view_poses`: no shared parameters (P = 0),
    and problem i's camera fixed at intrinsics[i]."""
    from caliblab.calibrate import _intrinsic_arrays

    f, pp = _intrinsic_arrays(intrinsics)
    return np.zeros((1, 3, 0)), np.column_stack([f, pp])[:, None]


def random_camera_map(rng, params, n_views, shared=5):
    """A camera map that is neither the identity nor empty, for one problem
    of a joint stack with parameters params (1, 3 + 12V): a random A_v
    (3, shared) per view, a random theta, and offsets b_v that keep every
    view's camera at the problem's (f, u0, v0) up to rounding. Returns the
    map (cam_map, cam_offset) and the parameters (1, shared + 12V)."""
    cam_map = rng.normal(0.0, 1.0, (n_views, 3, shared))
    theta = rng.normal(0.0, 10.0, shared)
    offset = params[0, :3] - cam_map @ theta
    return (cam_map, offset[None]), np.concatenate([theta, params[0, 3:]])[None]


def dense_joint_jacobian(params, pts, mask, cam_map, cam_offset) -> np.ndarray:
    """The dense (m, P + 6V) Jacobian of the residuals of one problem of
    `_views_problem`: views with board points pts (V, n, 3) and corner
    mask (V, n) at parameters params (P + 12V,), view v with the camera
    cam_map[v] @ theta + cam_offset[v] of the P leading parameters theta
    (cam_map (V, 3, P), cam_offset (V, 3), either view axis 1 to share).
    Built from the per-view pose rows of `_pose_rows`: view v's rows of the
    P shared columns are its d(u, v)/d(f, u0, v0) times cam_map[v], each
    view's pose columns form their own block, and the rows of padded
    corners are dropped."""
    from caliblab.calibrate import _pose_rows

    shared, n_views = cam_map.shape[-1], len(mask)
    cam_map = np.broadcast_to(cam_map, (n_views, 3, shared))
    cameras = cam_map @ params[:shared] + cam_offset
    poses = params[shared:].reshape(n_views, 12)
    pose_rows = np.zeros(pts.shape[:-1] + (2, 6))
    xy = _pose_rows(cameras[:, :1], poses[:, :9].reshape(-1, 3, 3), poses[:, 9:], pts, pose_rows)
    camera_rows = np.zeros(pts.shape[:-1] + (2, 3))  # d(u, v)/d(f, u0, v0)
    camera_rows[..., 0] = xy
    camera_rows[..., 0, 1] = camera_rows[..., 1, 2] = 1.0
    jac = np.zeros(pts.shape[:-1] + (2, shared + 6 * n_views))
    for v in range(n_views):
        jac[v, ..., :shared] = camera_rows[v] @ cam_map[v]
        jac[v, ..., shared + 6 * v : shared + 6 * v + 6] = pose_rows[v]
    return jac[mask].reshape(-1, jac.shape[-1])


def kmat(f: float, u0: float, v0: float) -> np.ndarray:
    return np.array([[f, 0.0, u0], [0.0, f, v0], [0.0, 0.0, 1.0]])


def oracle_rot_x(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def oracle_rot_y(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def oracle_rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def pinhole_project(f, pp, rot, t, board_xy) -> np.ndarray:
    """Direct pinhole projection of board-plane points (the oracle)."""
    pts = np.column_stack([board_xy, np.zeros(len(board_xy))])
    cam = pts @ np.asarray(rot).T + np.asarray(t)
    return f * cam[:, :2] / cam[:, 2:3] + np.asarray(pp, dtype=float)


def scene_homography(f, pp, rot, t) -> np.ndarray:
    """Raw K [r1 r2 t] matrix for a board-plane view."""
    rot = np.asarray(rot)
    return kmat(f, pp[0], pp[1]) @ np.column_stack([rot[:, 0], rot[:, 1], np.asarray(t)])


def canonical_homography(m) -> np.ndarray:
    """m scaled to Frobenius norm 1 and signed so that the first nonzero of
    h9, h7, h8 is positive: the form the package stores homographies in."""
    m = np.asarray(m, dtype=float)
    m = m / np.linalg.norm(m)
    pivot = next((p for p in (m[2, 2], m[2, 0], m[2, 1]) if p != 0.0), 0.0)
    return -m if pivot < 0.0 else m


def grid_board(cols: int = 9, rows: int = 6, square: float = 25.0) -> np.ndarray:
    xs = np.arange(cols) * square
    ys = np.arange(rows) * square
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def line_distance(line, point) -> float:
    """Distance of an image point (u, v) from a unit-normal line (a, b, c)."""
    a, b, c = line
    return abs(a * point[0] + b * point[1] + c)


def line_close(line, expected, tol: float = 1e-9) -> bool:
    """Compare homogeneous line coefficients up to overall sign."""
    got = np.array(line, dtype=float)
    exp = np.array(expected, dtype=float)
    exp = exp / math.hypot(exp[0], exp[1])
    return min(np.abs(got - exp).max(), np.abs(got + exp).max()) <= tol


def tilted_scene_cell(
    f=3000.0,
    pp=(3024.0, 2012.0),
    tilt_deg=45.0,
    rolls=None,
    distance=800.0,
    sigma=0.0,
    rng=None,
    board=None,
):
    """Protocol views: board tilted by the dihedral angle, rolled about the
    optical axis, centered in front of the camera. Returns the cell of
    views v0, v1, ... plus the ground-truth (rot, t) pairs."""
    if rolls is None:
        rolls = [k * 45.0 for k in range(8)]
    if board is None:
        board = grid_board()
    center = board.mean(axis=0)
    images, truth = [], []
    for roll in rolls:
        rot = oracle_rot_z(roll) @ oracle_rot_x(tilt_deg)
        t = distance * np.array([0.0, 0.0, 1.0]) - rot @ np.array([center[0], center[1], 0.0])
        uv = pinhole_project(f, pp, rot, t, board)
        if sigma > 0.0:
            uv = uv + rng.normal(0.0, sigma, uv.shape)
        images.append(uv)
        truth.append((rot, t))
    return build_cell([f"v{k}" for k in range(len(rolls))], [board] * len(rolls), images), truth


def bias_half_board(board_xy, image_uv, du=3.0, dv=3.0, split="x"):
    """Shift the image positions of one board half, mimicking the skewed
    corner detections of a nonuniformly lit capture."""
    uv = np.array(image_uv, dtype=float)
    axis = 0 if split == "x" else 1
    mask = board_xy[:, axis] > board_xy[:, axis].mean()
    uv[mask, 0] += du
    uv[mask, 1] += dv
    return uv


def protocol_distance(f, fill=0.6, span_mm=(200.0, 125.0), image=(6048.0, 4024.0)):
    """Board distance that fills the given image fraction, as the capture
    protocol prescribes."""
    return f * max(span_mm[0] / image[0], span_mm[1] / image[1]) / fill


@pytest.fixture
def board():
    return grid_board()


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
