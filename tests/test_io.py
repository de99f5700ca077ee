"""Tests for the dataset file format and report writers."""

import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from caliblab.dataset_io import (
    dumps_dataset,
    dumps_json,
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
            assert loaded.cells[key].ids == dataset.cells[key].ids
            np.testing.assert_array_equal(loaded.cells[key].count, dataset.cells[key].count)
            np.testing.assert_allclose(loaded.cells[key].image, dataset.cells[key].image, rtol=1e-8)
            (intr_a,) = dataset.ground_truth[key]
            (intr_b,) = loaded.ground_truth[key]
            assert intr_b.f == pytest.approx(intr_a.f, rel=1e-8)
            assert intr_b.pp.u == pytest.approx(intr_a.pp.u, rel=1e-8)
            assert intr_b.pp.v == pytest.approx(intr_a.pp.v, rel=1e-8)

    def test_corner_order_row_major(self, dataset):
        key = next(iter(dataset.cells))
        board = dataset.cells[key].board[0]
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

    def test_truth_poses_of_older_files_are_ignored(self, dataset):
        # older files also stored each view's board pose, as an axis-angle
        # rvec and a translation t_mm, under ground_truth.views; such a file
        # loads to the same cells and intrinsics and is rewritten without them
        text = dumps_dataset(dataset)
        node = json.loads(text)
        for cell in node["cells"]:
            cell["ground_truth"]["views"] = [
                {"rvec": [0.1 * k, -0.2, 0.3], "t_mm": [-100.0, 25.5, 800.0 + k]} for k in range(len(cell["views"]))
            ]
        older = dumps_json(node)
        assert older != text and '"rvec":' in older
        loaded = loads_dataset(older)
        reference = loads_dataset(text)
        assert loaded.cells.keys() == reference.cells.keys()
        for key, cell in reference.cells.items():
            assert loaded.cells[key].ids == cell.ids
            assert loaded.cells[key].image.tobytes() == cell.image.tobytes()
            assert loaded.cells[key].h.tobytes() == cell.h.tobytes()
            assert loaded.ground_truth[key] == reference.ground_truth[key]
        assert dumps_dataset(loaded) == text

    def test_duplicate_view_id_rejected(self, dataset):
        node = json.loads(dumps_dataset(dataset))
        views = node["cells"][1]["views"]
        views[2]["id"] = views[1]["id"]
        with pytest.raises(ConfigError) as exc:
            loads_dataset(json.dumps(node))
        assert str(exc.value) == f"malformed dataset at cell 1, view {views[1]['id']}: duplicate view id"


class TestDatasetWriter:
    def test_template_matches_generic_emitter(self, dataset):
        # the corner template writes what the generic JSON emitter writes
        cells = []
        for (pose, setting), cell in dataset.cells.items():
            (intr,) = dataset.ground_truth[(pose, setting)]
            cells.append(
                {
                    "pose": pose.value,
                    "focal_label_mm": float(setting.label_mm),
                    "focal_px": float(setting.f_px),
                    "views": [
                        {
                            "id": view_id,
                            "corners": [
                                {"x_mm": x, "y_mm": y, "u_px": u, "v_px": v}
                                for (x, y), (u, v) in zip(cell.board[k, :n].tolist(), cell.image[k, :n].tolist())
                            ],
                        }
                        for k, (view_id, n) in enumerate(zip(cell.ids, cell.count.tolist()))
                    ],
                    "ground_truth": {"f_px": intr.f, "pp_u_px": intr.pp.u, "pp_v_px": intr.pp.v},
                }
            )
        assert dumps_dataset(dataset) == dumps_json({"camera_id": dataset.camera_id, "cells": cells})

    def test_percent_format_equals_format_float(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1.0, 1.0, 20000) * 10.0 ** rng.uniform(-300.0, 300.0, 20000)
        values = [*values.tolist(), 5e-324, -0.0, 0.0, 1.7976931348623157e308, 1e16, 123456789.5]
        assert all("%.9g" % x == format_float(x) for x in values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_corner_rejected(self, dataset, bad):
        key = next(iter(dataset.cells))
        image = dataset.cells[key].image.copy()
        image[1, 4, 1] = bad
        cells = {**dataset.cells, key: replace(dataset.cells[key], image=image)}
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            dumps_dataset(replace(dataset, cells=cells))


class TestStrictNumbers:
    """Every numeric field must be a JSON number: a string or a bool in its
    place is malformed, named by cell, view and field."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda cell: cell["views"][2]["corners"][5].update(u_px="816.878231"),
                "malformed dataset at cell 1, view {view}: field u_px of corner 5 must be a number, got str",
            ),
            (
                lambda cell: cell["views"][2]["corners"][0].update(y_mm=True),
                "malformed dataset at cell 1, view {view}: field y_mm of corner 0 must be a number, got bool",
            ),
            (
                lambda cell: cell.update(focal_label_mm="18"),
                "malformed dataset at cell 1: field focal_label_mm must be a number, got str",
            ),
            (
                lambda cell: cell.update(focal_px=False),
                "malformed dataset at cell 1: field focal_px must be a number, got bool",
            ),
            (
                lambda cell: cell["ground_truth"].update(f_px="6000"),
                "malformed dataset at cell 1, ground truth: field f_px must be a number, got str",
            ),
        ],
        ids=["string-corner", "bool-corner", "string-label", "bool-focal", "string-truth-f"],
    )
    def test_wrong_type_rejected(self, dataset, mutate, message):
        node = json.loads(dumps_dataset(dataset))
        cell = node["cells"][1]
        mutate(cell)
        with pytest.raises(ConfigError) as exc:
            loads_dataset(json.dumps(node))
        assert str(exc.value) == message.format(view=cell["views"][2]["id"])

    def test_integers_are_numbers(self, dataset):
        node = json.loads(dumps_dataset(dataset))
        node["cells"][0]["focal_label_mm"] = 12
        node["cells"][0]["views"][0]["corners"][0]["u_px"] = 1800
        loaded = loads_dataset(json.dumps(node))
        assert loaded.cells[(PoseLabel.DOWN, FocalSetting(12.0, 3000.0))].image[0, 0, 0] == 1800.0


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
        pps = {
            (PoseLabel.DOWN, 0): Point2(3024.0, 2012.0),
            (PoseLabel.DOWN, 1): Point2(3050.0, 1990.0),
            (PoseLabel.N, 0): Point2(3026.0, 2030.0),
        }
        svg = render_pp_scatter_svg(pps)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "script" not in svg
        # one panel per pose, gray DOWN locus on the N panel
        assert svg.count("pose DOWN") == 1
        assert svg.count("pose N") == 1

    def test_deterministic(self):
        pps = {(PoseLabel.DOWN, 0): Point2(10.0, 20.0)}
        assert render_pp_scatter_svg(pps) == render_pp_scatter_svg(pps)
