"""Tests for the dataset file format and report writers."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from caliblab.dataset_io import (
    dumps_dataset,
    format_float,
    loads_dataset,
    read_dataset,
    write_dataset,
)
from caliblab.errors import ConfigError
from caliblab.geometry import Point2
from caliblab.reports import (
    CALIBRATION_CSV_HEADER,
    CROSSVAL_CSV_HEADER,
    GRAVITY_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    render_pp_scatter_svg,
    rows_to_csv,
)
from caliblab.synth import DriftModel, FocalSetting, PoseLabel, SceneConfig, generate_dataset


@pytest.fixture
def dataset():
    config = SceneConfig(
        focal_settings=(FocalSetting(12.0, 3000.0), FocalSetting(24.0, 6000.0)),
        poses=(PoseLabel.DOWN, PoseLabel.N),
        rolls=(0.0, 90.0, 180.0, 270.0),
        noise_sigma_px=0.3,
        rng_seed=7,
        drift=DriftModel(pp0=Point2(3024.0, 2012.0)),
    )
    return generate_dataset(config)


class TestDatasetRoundTrip:
    def test_write_read_write_is_byte_identical(self, dataset):
        text1 = dumps_dataset(dataset)
        loaded = loads_dataset(text1)
        text2 = dumps_dataset(loaded)
        assert text1 == text2

    def test_values_survive_at_9_digits(self, dataset):
        loaded = loads_dataset(dumps_dataset(dataset))
        assert loaded.camera_id == dataset.camera_id
        assert set(loaded.cells) == set(dataset.cells)
        for key in dataset.cells:
            for va, vb in zip(dataset.cells[key], loaded.cells[key]):
                assert va.id == vb.id
                np.testing.assert_allclose(vb.image_uv, va.image_uv, rtol=1e-8)
            intr_a, extrs_a = dataset.ground_truth[key]
            intr_b, extrs_b = loaded.ground_truth[key]
            assert intr_b.f == pytest.approx(intr_a.f, rel=1e-8)
            for ea, eb in zip(extrs_a, extrs_b):
                np.testing.assert_allclose(eb.rot, ea.rot, atol=1e-8)
                # reloaded rotations are exact rotations again
                np.testing.assert_allclose(eb.rot.T @ eb.rot, np.eye(3), atol=1e-12)

    def test_corner_order_row_major(self, dataset):
        key = next(iter(dataset.cells))
        view = dataset.cells[key][0]
        board = view.board_xy
        # row major from the origin: y varies slowest, x fastest
        assert board[0][0] == 0.0 and board[0][1] == 0.0
        assert board[1][0] > board[0][0] and board[1][1] == board[0][1]

    def test_file_round_trip(self, dataset, tmp_path):
        path = tmp_path / "ds.json"
        write_dataset(path, dataset)
        loaded = read_dataset(path)
        write_dataset(tmp_path / "ds2.json", loaded)
        assert path.read_bytes() == (tmp_path / "ds2.json").read_bytes()

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            loads_dataset("not json at all {")
        with pytest.raises(ConfigError):
            loads_dataset("[1, 2, 3]")

    def test_format_float_9_digits(self):
        assert format_float(4500.0) == "4500"
        assert format_float(0.123456789123) == "0.123456789"
        with pytest.raises(ValueError):
            format_float(float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
    def test_format_float_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            format_float(bad)

    def test_duplicate_view_id_rejected(self, dataset):
        node = json.loads(dumps_dataset(dataset))
        views = node["cells"][1]["views"]
        views[2]["id"] = views[1]["id"]
        with pytest.raises(ConfigError) as exc:
            loads_dataset(json.dumps(node))
        assert str(exc.value) == f"malformed dataset at cell 1, view {views[1]['id']}: duplicate view id"


class TestCsv:
    def test_calibration_header_golden(self):
        text = rows_to_csv(CALIBRATION_CSV_HEADER, [])
        assert text == (
            "pose,focal_label_mm,method,status,n_views,u0_px,v0_px,f_px,rmse_px,"
            "flagged_views,gt_u0_px,gt_v0_px,gt_f_px\n"
        )

    def test_other_headers_golden(self):
        assert rows_to_csv(TRAJECTORY_CSV_HEADER, []).startswith(
            "setting_index,focal_label_mm,u0_px,v0_px,step_du_px,step_dv_px"
        )
        assert rows_to_csv(GRAVITY_CSV_HEADER, []).startswith(
            "setting_index,focal_label_mm,pose,offset_u_px,offset_v_px,offset_mag_px"
        )
        assert rows_to_csv(CROSSVAL_CSV_HEADER, []).startswith(
            "setting_index,focal_label_mm,intrinsics_pose,eval_pose,rmse_px"
        )

    def test_none_becomes_empty_field(self):
        text = rows_to_csv(["a", "b"], [[1.5, None]])
        assert text.splitlines()[1] == "1.5,"


class TestSvg:
    def test_well_formed_and_self_contained(self):
        payload = {
            "DOWN": [(0, 3024.0, 2012.0), (1, 3050.0, 1990.0)],
            "N": [(0, 3026.0, 2030.0)],
        }
        svg = render_pp_scatter_svg(payload)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "script" not in svg
        # one panel per pose, gray DOWN locus on the N panel
        assert svg.count("pose DOWN") == 1
        assert svg.count("pose N") == 1

    def test_deterministic(self):
        payload = {"DOWN": [(0, 10.0, 20.0)]}
        assert render_pp_scatter_svg(payload) == render_pp_scatter_svg(payload)
