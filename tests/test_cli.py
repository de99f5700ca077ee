"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import caliblab
from caliblab.cli import main
from caliblab.dataset_io import TRUTH_MAX_ABS_PX, dumps_dataset
from caliblab.synth import PoseLabel, SceneConfig, generate_dataset


def write_config(tmp_path, **overrides):
    config = {
        "camera": "cam1",
        "focal_settings": [
            {"label_mm": 12.0, "f_px": 3000.0},
            {"label_mm": 18.0, "f_px": 4500.0},
            {"label_mm": 24.0, "f_px": 6000.0},
        ],
        "poses": ["DOWN", "N", "W", "E"],
        "rolls": [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0],
        "noise_sigma_px": 0.0,
        "rng_seed": 3,
    }
    config.update(overrides)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(config))
    return path


def strict_json(path):
    """A summary file parsed as strict JSON: NaN and Infinity are errors."""

    def reject(token):
        raise ValueError(f"{path} holds the non-JSON constant {token}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def dataset_path(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "ds.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_expected_view_count(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "ds.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert sum(len(c["views"]) for c in data["cells"]) == 4 * 3 * 8

    def test_default_dataset_is_224_views(self, tmp_path):
        out = tmp_path / "full.json"
        assert main(["simulate", "--out", str(out), "--seed", "0"]) == 0
        data = json.loads(out.read_text())
        assert sum(len(c["views"]) for c in data["cells"]) == 224

    def test_byte_deterministic(self, tmp_path):
        config = write_config(tmp_path, noise_sigma_px=0.5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", str(config), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_camera_option_overrides_config(self, tmp_path):
        # --camera wins over the configuration's camera, as --seed does
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({"camera": "cam1"}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", str(config), "--camera", "cam3", "--out", str(a)]) == 0
        assert main(["simulate", "--camera", "cam3", "--out", str(b)]) == 0
        assert json.loads(a.read_text())["camera_id"] == "cam3"
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_tilt_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, tilt_deg=0.0)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "dihedral" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        config = write_config(tmp_path, bogus_key=1)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_option_exits_2(self, tmp_path, capsys, value):
        code = main(["simulate", "--noise-sigma", value, "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: scene noise_sigma_px must be a finite number, got {float(value)!r}"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"square_mm": math.nan}, "scene square_mm must be a finite number"),
            ({"rolls": [0.0, math.nan]}, "scene rolls must be a finite number"),
            ({"drift": {"pose_tilt_deg": math.nan}}, "drift pose_tilt_deg must be a finite number"),
            ({"drift": {"pp0": [math.nan, 0.0]}}, "invalid drift model: pp0"),
            (
                {"focal_settings": [{"label_mm": math.inf, "f_px": 3000.0}]},
                "focal setting label_mm must be a finite number",
            ),
            ({"rolls": [45, 45.0000001, 90]}, "distinct view labels"),
            ({"rolls": 5}, "scene rolls must be a list, got 5"),
            ({"rolls": ["x"]}, "invalid scene rolls: could not convert string to float: 'x'"),
            ({"poses": 3}, "scene poses must be a list, got 3"),
            ({"drift": 7}, "invalid drift model: must be an object, got 7"),
            ({"drift": {"drift_dir": 1}}, "invalid drift model: drift_dir"),
            ({"focal_settings": [5]}, "a focal setting must be an object with label_mm and f_px, got 5"),
            ({"focal_settings": [{"label_mm": 12.0}]}, "focal setting is missing 'f_px'"),
            ({"board_cols": 2.5}, "board_cols must be an integer, got 2.5"),
            ({"image_width": 6048.5}, "image_width must be an integer, got 6048.5"),
            ({"noise_sigma_px": True}, "scene noise_sigma_px must be a finite number, got True"),
            ({"drift": {"flip_gravity": "no"}}, "flip_gravity must be true or false, got 'no'"),
            ({"camera_id": 5}, "camera_id must be a string, got 5"),
            ({"camera_id": ["x"]}, "camera_id must be a string, got ['x']"),
            # JSON integers beyond float range
            ({"noise_sigma_px": 10**400}, "scene noise_sigma_px must be a finite number"),
            ({"focal_settings": [{"label_mm": 12.0, "f_px": 10**400}]}, "invalid focal setting: int too large"),
            ({"drift": {"pp0": [10**400, 0.0]}}, "invalid drift model: pp0: int too large"),
            ({"rolls": [0.0, 10**400]}, "invalid scene rolls: int too large"),
        ],
        ids=[
            "square",
            "roll",
            "pose-tilt",
            "pp0",
            "focal-label",
            "colliding-rolls",
            "rolls-number",
            "rolls-text",
            "poses-number",
            "drift-number",
            "drift-dir-number",
            "focal-setting-number",
            "focal-setting-no-f",
            "fractional-board",
            "fractional-image",
            "boolean-noise",
            "text-flip-gravity",
            "camera-id-number",
            "camera-id-list",
            "huge-int-noise",
            "huge-int-focal",
            "huge-int-pp0",
            "huge-int-roll",
        ],
    )
    def test_bad_scene_number_exits_2(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, **overrides)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        # Python refuses to parse a JSON integer of more than 4300 digits
        config = tmp_path / "scene.json"
        config.write_text('{"noise_sigma_px": 1' + "0" * 5000 + "}")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: cannot read configuration {config}: ") and len(err.splitlines()) == 1

    def test_generation_failure_exits_3(self, tmp_path, capsys):
        # a 400 px noise margin cannot fit any corner inside the frame
        config = write_config(tmp_path, noise_sigma_px=400.0)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "does not fit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "square_mm, detail",
        [(1e-20, "all points coincide"), (1e200, "point coordinates spread too far to normalize")],
        ids=["tiny-square", "huge-square"],
    )
    def test_view_that_cannot_be_built_exits_3(self, tmp_path, capsys, square_mm, detail):
        # the board fits the image, but its corners cannot be told apart
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({"square_mm": square_mm}))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: board view cannot be built for pose DOWN, setting 18 mm, roll 0.0: {detail}\n"
        assert not (tmp_path / "x.json").exists()


class TestCalibrate:
    def test_noise_free_matches_ground_truth_columns(self, dataset_path, tmp_path):
        out = tmp_path / "rep"
        assert main(
            ["calibrate", "--dataset", str(dataset_path), "--out-dir", str(out), "--method", "geometric"]
        ) == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 12
        for row in rows:
            assert row["status"] == "ok"
            assert math.hypot(
                float(row["u0_px"]) - float(row["gt_u0_px"]),
                float(row["v0_px"]) - float(row["gt_v0_px"]),
            ) < 0.01
            assert abs(float(row["f_px"]) - float(row["gt_f_px"])) / float(row["gt_f_px"]) < 1e-4
        assert (out / "pp_scatter.svg").exists()
        assert (out / "summary.json").exists()

    def test_two_views_geometric_succeeds(self, dataset_path, tmp_path):
        out = tmp_path / "rep2"
        code = main(
            [
                "calibrate",
                "--dataset",
                str(dataset_path),
                "--out-dir",
                str(out),
                "--method",
                "geometric",
                "--max-views",
                "2",
            ]
        )
        assert code == 0
        assert all(r["status"] == "ok" for r in read_csv(out / "results.csv"))

    def test_two_views_algebraic_marked_degenerate(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "rep3"
        code = main(
            [
                "calibrate",
                "--dataset",
                str(dataset_path),
                "--out-dir",
                str(out),
                "--method",
                "algebraic",
                "--max-views",
                "2",
            ]
        )
        assert code == 4
        rows = read_csv(out / "results.csv")
        assert rows, "partial CSV must still be written"
        assert all(r["status"] == "DegenerateSystem" for r in rows)

    def test_methods_agree_on_exact_data(self, dataset_path, tmp_path):
        rows = {}
        for method in ("geometric", "algebraic", "algebraic-refined"):
            out = tmp_path / f"rep-{method}"
            assert main(
                ["calibrate", "--dataset", str(dataset_path), "--out-dir", str(out), "--method", method]
            ) == 0
            rows[method] = read_csv(out / "results.csv")
        for a, b, c in zip(rows["geometric"], rows["algebraic"], rows["algebraic-refined"]):
            assert abs(float(a["f_px"]) - float(b["f_px"])) / float(a["f_px"]) < 1e-4
            assert abs(float(a["f_px"]) - float(c["f_px"])) / float(a["f_px"]) < 1e-4

    def test_missing_dataset_exits_2(self, tmp_path):
        assert main(["calibrate", "--dataset", str(tmp_path / "no.json"), "--out-dir", str(tmp_path)]) == 2

    def test_empty_dataset_path_exits_2(self, tmp_path, capsys):
        assert main(["calibrate", "--dataset", "", "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read dataset .: ")

    def test_deterministic_outputs(self, dataset_path, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(
                ["calibrate", "--dataset", str(dataset_path), "--out-dir", str(out), "--method", "geometric"]
            ) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]


class TestRunOptions:
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--max-views", "-3", "argument --max-views"),
            ("--max-views", "0", "argument --max-views"),
            ("--max-views", "two", "argument --max-views"),
            ("--pl-outlier-px", "nan", "argument --pl-outlier-px"),
            ("--pl-outlier-px", "inf", "argument --pl-outlier-px"),
            ("--pl-outlier-px", "0", "argument --pl-outlier-px"),
            ("--pl-outlier-px", "-1", "argument --pl-outlier-px"),
            ("--seed", "0", "unrecognized arguments: --seed 0"),
            ("--no-refine", "1", "unrecognized arguments: --no-refine 1"),
        ],
    )
    @pytest.mark.parametrize("command", ["calibrate", "crossval", "analyze"])
    def test_bad_option_exits_2(self, tmp_path, capsys, command, option, value, message):
        # rejected while parsing, before the dataset is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(tmp_path / "ds.json"), "--out-dir", str(tmp_path / "out"), option, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "mutate, in_view, detail",
        [
            (lambda cell: cell["views"][1]["corners"][0].pop("u_px"), True, "missing field 'u_px'"),
            (lambda cell: cell.update(focal_label_mm=None), False, "field focal_label_mm must be a number, got NoneType"),
            (lambda cell: cell["views"][1].update(corners=cell["views"][1]["corners"][:3]), True, "at least 4 corners"),
            (lambda cell: cell["views"][1]["corners"][5].update(v_px=float("nan")), True, "must be finite"),
            (lambda cell: [c.update(y_mm=0.0) for c in cell["views"][1]["corners"]], True, "rank deficient"),
            (lambda cell: cell["views"][1]["corners"][0].update(u_px=1e200), True, "spread too far to normalize"),
            (lambda cell: cell.update(focal_px=float("nan")), False, "f_px > 0, got nan"),
            (lambda cell: cell.update(focal_px=0.0), False, "f_px > 0, got 0.0"),
            (
                lambda cell: cell["views"][1]["corners"][7].update(u_px="816.878231"),
                True,
                "field u_px of corner 7 must be a number, got str",
            ),
            (
                lambda cell: cell["views"][1]["corners"][3].update(x_mm=False),
                True,
                "field x_mm of corner 3 must be a number, got bool",
            ),
            (lambda cell: cell.update(focal_label_mm="18"), False, "field focal_label_mm must be a number, got str"),
            (
                lambda cell: cell["views"][1]["corners"][0].update(v_px=10**400),
                True,
                "int too large to convert to float",
            ),
        ],
        ids=[
            "missing-u",
            "null-focal-label",
            "three-corners",
            "nan-corner",
            "collinear-board",
            "overflowing-corner",
            "nan-focal",
            "zero-focal",
            "string-corner",
            "bool-corner",
            "string-focal-label",
            "huge-int-corner",
        ],
    )
    def test_malformed_dataset_exits_2(self, dataset_path, tmp_path, capsys, mutate, in_view, detail):
        data = json.loads(dataset_path.read_text())
        cell = data["cells"][2]
        mutate(cell)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["calibrate", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        location = f"cell 2, view {cell['views'][1]['id']}:" if in_view else "cell 2:"
        assert err.startswith(f"error: malformed dataset at {location}")
        assert detail in err
        assert len(err.splitlines()) == 1

    def test_dataset_integer_past_digit_limit_exits_2(self, dataset_path, tmp_path, capsys):
        text = dataset_path.read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"focal_px":', '"focal_px":1' + "0" * 5000 + ',"x":', 1))
        assert main(["calibrate", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: dataset file is not valid JSON: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["calibrate", "crossval", "analyze"])
    def test_empty_dataset_exits_2(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"cells": []}))
        assert main([command, "--dataset", str(empty), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: dataset has no cells\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            lambda ds: ["simulate", "--out", "a-dir"],
            lambda ds: ["simulate", "--out", "a-file/x.json"],
            lambda ds: ["simulate", "--out", "."],
            lambda ds: ["calibrate", "--dataset", str(ds), "--out-dir", "a-file"],
            lambda ds: ["crossval", "--dataset", str(ds), "--out-dir", "a-file"],
            lambda ds: ["analyze", "--dataset", str(ds), "--out-dir", "a-file"],
        ],
        ids=["simulate-dir", "simulate-under-file", "simulate-dot", "calibrate-file", "crossval-file", "analyze-file"],
    )
    def test_unwritable_output_exits_2(self, dataset_path, tmp_path, monkeypatch, capsys, argv):
        (tmp_path / "a-dir").mkdir()
        (tmp_path / "a-file").write_text("")
        monkeypatch.chdir(tmp_path)
        assert main(argv(dataset_path)) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: cannot write ")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.rglob("*.tmp"))

    def test_duplicate_view_id_exits_2(self, dataset_path, tmp_path, capsys):
        data = json.loads(dataset_path.read_text())
        views = data["cells"][2]["views"]
        views[4]["id"] = views[1]["id"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["calibrate", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: malformed dataset at cell 2, view {views[1]['id']}: duplicate view id"


class TestCrossval:
    def test_max_views_matches_truncated_dataset(self, tmp_path):
        config = write_config(tmp_path, noise_sigma_px=0.5, focal_settings=[{"label_mm": 12.0, "f_px": 3000.0}])
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0
        data = json.loads(ds.read_text())
        for cell in data["cells"]:
            cell["views"] = cell["views"][:4]
        truncated = tmp_path / "ds4.json"
        truncated.write_text(json.dumps(data))
        outs = []
        for dataset, extra in ((ds, ["--max-views", "4"]), (truncated, []), (ds, [])):
            out = tmp_path / f"cv{len(outs)}"
            assert main(["crossval", "--dataset", str(dataset), "--out-dir", str(out), *extra]) == 0
            outs.append((out / "crossval.csv").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_gravity_free_noise_free_matrix_near_zero(self, tmp_path):
        config = write_config(
            tmp_path, drift={"gravity_px": 0.0}, focal_settings=[{"label_mm": 12.0, "f_px": 3000.0}]
        )
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0
        out = tmp_path / "cv"
        assert main(["crossval", "--dataset", str(ds), "--out-dir", str(out)]) == 0
        for row in read_csv(out / "crossval.csv"):
            # the 9-significant-digit dataset format quantizes corners at
            # ~2e-6 px, which floors the refit RMSE; anything far below
            # the noise scale counts as an exact transfer
            assert float(row["rmse_px"]) < 1e-4

    def test_single_pose_exits_5(self, tmp_path):
        config = write_config(tmp_path, poses=["DOWN"], focal_settings=[{"label_mm": 12.0, "f_px": 3000.0}])
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0
        assert main(["crossval", "--dataset", str(ds), "--out-dir", str(tmp_path / "cv")]) == 5


class TestAnalyze:
    def test_recovers_drift_direction(self, tmp_path):
        config = write_config(
            tmp_path,
            poses=["DOWN"],
            noise_sigma_px=0.5,
            focal_settings=[
                {"label_mm": 10.0 + 4 * k, "f_px": 3000.0 + 1000.0 * k} for k in range(5)
            ],
        )
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(ds), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        injected = math.degrees(
            math.atan2(-math.cos(math.radians(22.5)), math.sin(math.radians(22.5)))
        ) % 180.0
        delta = abs(summary["trajectory"]["direction_deg"] - injected) % 180.0
        assert min(delta, 180.0 - delta) <= 10.0
        assert (out / "trajectory.csv").exists()
        assert (out / "gravity.csv").exists()

    def test_down_only_still_succeeds(self, tmp_path):
        config = write_config(tmp_path, poses=["DOWN"])
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(ds), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert any("gravity" in n for n in summary["notices"])

    def test_widespread_cell_failures_exit_5(self, dataset_path, tmp_path):
        # two-view cells make every algebraic calibration fail
        code = main(
            [
                "analyze",
                "--dataset",
                str(dataset_path),
                "--out-dir",
                str(tmp_path / "an"),
                "--method",
                "algebraic",
                "--max-views",
                "2",
            ]
        )
        assert code == 5

    def test_gravity_offsets_in_summary(self, dataset_path, tmp_path):
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(dataset_path), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        offsets = summary["gravity"]["mean_offset_px"]
        for pose in ("N", "W", "E"):
            assert offsets[pose] == pytest.approx(15.0, abs=1.0)

    def test_truth_block_reports_injected_drift(self, tmp_path):
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--camera", "cam1", "--out", str(ds)]) == 0
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(ds), "--out-dir", str(out)]) == 0
        truth = strict_json(out / "summary.json")["truth"]
        # cam1 injects a linear 120 px drift along 112.5 degrees and a 15 px
        # gravity offset; the file stores the true points at 9 significant
        # digits, which moves the direction by about 1.4e-6 degrees
        assert truth["notices"] == []
        assert truth["trajectory"]["direction_deg"] == pytest.approx(112.5, abs=1e-4)
        assert truth["trajectory"]["total_shift_px"] == pytest.approx(120.0, abs=1e-4)
        assert truth["trajectory"]["monotonicity"] in (-1.0, 1.0)
        assert truth["gravity"]["mean_offset_px"] == pytest.approx({"N": 15.0, "W": 15.0, "E": 15.0}, abs=1e-4)

    def test_truth_block_follows_the_dataset_not_the_views(self, dataset_path, tmp_path):
        summaries = []
        for extra in ([], ["--max-views", "3"]):
            out = tmp_path / f"an{len(summaries)}"
            assert main(["analyze", "--dataset", str(dataset_path), "--out-dir", str(out), *extra]) == 0
            summaries.append(strict_json(out / "summary.json"))
        assert summaries[0]["truth"] == summaries[1]["truth"]

        data = json.loads(dataset_path.read_text())
        for cell in data["cells"]:
            del cell["ground_truth"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(data))
        out = tmp_path / "bare"
        assert main(["analyze", "--dataset", str(bare), "--out-dir", str(out)]) == 0
        summary = strict_json(out / "summary.json")
        assert "truth" not in summary
        assert {key: summary[key] for key in ("trajectory", "gravity")} == {
            key: summaries[0][key] for key in ("trajectory", "gravity")
        }

    def test_degenerate_recovered_direction_is_null(self, dataset_path, tmp_path):
        # three DOWN cells holding the same views recover one point three times
        data = json.loads(dataset_path.read_text())
        down = [cell for cell in data["cells"] if cell["pose"] == "DOWN"]
        for cell in down[1:]:
            cell["views"] = down[0]["views"]
        data["cells"] = down
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps(data))
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(dup), "--out-dir", str(out)]) == 0
        trajectory = strict_json(out / "summary.json")["trajectory"]
        assert trajectory["degenerate"] is True
        assert trajectory["direction_deg"] is None

    def test_degenerate_truth_direction_is_null(self, tmp_path):
        config = write_config(tmp_path, drift={"drift_total": 0.0, "gravity_px": 0.0})
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--config", str(config), "--out", str(ds)]) == 0
        out = tmp_path / "an"
        assert main(["analyze", "--dataset", str(ds), "--out-dir", str(out)]) == 0
        truth = strict_json(out / "summary.json")["truth"]
        assert truth["trajectory"]["degenerate"] is True
        assert truth["trajectory"]["direction_deg"] is None
        assert "gravity" not in truth

    def test_ground_truth_beyond_bound_exits_2(self, tmp_path, capsys):
        # true principal points at +-1.7e308 overflow the truth block's
        # differences; at the bound the analysis runs without a warning
        ds = tmp_path / "ds.json"
        assert main(["simulate", "--camera", "cam1", "--seed", "0", "--out", str(ds)]) == 0
        data = json.loads(ds.read_text())
        for value, code in ((1.7e308, 2), (TRUTH_MAX_ABS_PX, 0)):
            for k, cell in enumerate(data["cells"]):
                cell["ground_truth"]["pp_u_px"] = value if k % 2 else -value
            edited = tmp_path / f"pp-{value:g}.json"
            edited.write_text(json.dumps(data))
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["analyze", "--dataset", str(edited), "--out-dir", str(tmp_path / f"{value:g}")]) == code
            assert caught == []
            err = capsys.readouterr().err
            if code:
                assert err.startswith("error: malformed dataset at cell 0, ground truth: ")
                assert len(err.splitlines()) == 1
            else:
                assert err == ""
                assert strict_json(tmp_path / f"{value:g}" / "summary.json")["truth"]["notices"] == []


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        config = write_config(tmp_path, poses=["DOWN"], focal_settings=[{"label_mm": 12.0, "f_px": 3000.0}])
        out = tmp_path / "ds.json"
        proc = subprocess.run(
            [sys.executable, "-m", "caliblab", "simulate", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_module_generation_failure_exits_3(self, tmp_path):
        # a board that cannot fit the image is exit 3 with one line, not a traceback
        proc = subprocess.run(
            [
                sys.executable, "-m", "caliblab", "simulate", "--camera", "cam1", "--seed", "0",
                "--noise-sigma", "400", "--out", str(tmp_path / "ds.json"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(caliblab.__file__).resolve().parents[1])},
            timeout=120,
        )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        # generate_cell's message alone, naming the cell once
        assert line == "error: board does not fit the image for pose DOWN, setting 18 mm, roll 0.0"


@functools.lru_cache(maxsize=1)
def small_cam1_document() -> str:
    """The cam1 dataset file of 2 poses x 3 focal settings, 8 views each."""
    cam1 = SceneConfig.for_camera("cam1")
    config = replace(cam1, poses=(PoseLabel.DOWN, PoseLabel.N), focal_settings=cam1.focal_settings[:3])
    return dumps_dataset(generate_dataset(config))


# fresh copies, since a later mutation may descend into an inserted value
JSON_JUNK = st.sampled_from(
    [None, True, False, math.nan, math.inf, -math.inf, "x", "", [], [1.0, "x"], {}, {"x": 1}]
).map(copy.deepcopy)


def mutated_document(mutate) -> str:
    """The small cam1 dataset file with mutate applied to its first cell."""
    root = json.loads(small_cam1_document())
    mutate(root["cells"][0])
    return json.dumps(root)


@st.composite
def mutated_documents(draw):
    """The small cam1 dataset file with 1 to 3 nodes deleted or replaced by
    a JSON value of another kind. Each mutation walks down from the root,
    stopping at each level with even odds, so that every depth is hit."""
    root = json.loads(small_cam1_document())
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, root
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        if parent is None:
            break
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON_JUNK)
    return json.dumps(root)


class TestMalformedDatasetFuzz:
    """Any damage to a dataset file ends in an exit code and at most one
    line on stderr, never a traceback."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(document=mutated_documents(), command=st.sampled_from(["calibrate", "analyze", "crossval"]))
    # a number written as a string, and one written as a bool: both exited 0
    @example(
        document=mutated_document(lambda cell: cell["views"][2]["corners"][4].update(u_px="816.878231")),
        command="calibrate",
    )
    @example(document=mutated_document(lambda cell: cell["views"][0]["corners"][1].update(x_mm=False)), command="analyze")
    def test_exit_code_and_one_line(self, document, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.json"
            path.write_text(document)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--dataset", str(path), "--out-dir", str(Path(tmp) / "out")])
        assert code in {0, 2, 4, 5}
        assert len(err.getvalue().splitlines()) <= 1
