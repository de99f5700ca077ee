"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import json
import math
import subprocess
import sys

import pytest

from caliblab.cli import main


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
        ],
        ids=["square", "roll", "pose-tilt", "pp0", "focal-label", "colliding-rolls"],
    )
    def test_bad_scene_number_exits_2(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, **overrides)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_generation_failure_exits_3(self, tmp_path, capsys):
        # a 400 px noise margin cannot fit any corner inside the frame
        config = write_config(tmp_path, noise_sigma_px=400.0)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.json")])
        assert code == 3
        assert "does not fit" in capsys.readouterr().err


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
            (lambda cell: cell.update(focal_label_mm=None), False, "float()"),
            (lambda cell: cell["views"][1].update(corners=cell["views"][1]["corners"][:3]), True, "at least 4 corners"),
            (lambda cell: cell["views"][1]["corners"][5].update(v_px=float("nan")), True, "must be finite"),
            (lambda cell: [c.update(y_mm=0.0) for c in cell["views"][1]["corners"]], True, "rank deficient"),
            (lambda cell: cell["ground_truth"]["views"][1].update(rvec=[0.1, 0.2]), "truth", "3 components"),
        ],
        ids=["missing-u", "null-focal-label", "three-corners", "nan-corner", "collinear-board", "short-rvec"],
    )
    def test_malformed_dataset_exits_2(self, dataset_path, tmp_path, capsys, mutate, in_view, detail):
        data = json.loads(dataset_path.read_text())
        cell = data["cells"][2]
        mutate(cell)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["calibrate", "--dataset", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip()
        if in_view == "truth":
            location = "cell 2, ground truth:"
        else:
            location = f"cell 2, view {cell['views'][1]['id']}:" if in_view else "cell 2:"
        assert err.startswith(f"error: malformed dataset at {location}")
        assert detail in err
        assert len(err.splitlines()) == 1


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
            cell["ground_truth"]["views"] = cell["ground_truth"]["views"][:4]
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
