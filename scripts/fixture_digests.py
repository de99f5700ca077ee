#!/usr/bin/env python3
"""Digests of the CLI fixture set, for checking that outputs stay byte-identical.

Runs the `caliblab` CLI on the cam1 preset at seed 7, at noise sigma 0 and
0.5 px: `simulate`, then `calibrate` and `crossval` with every method,
`calibrate --max-views 3`, `calibrate --method algebraic-refined
--max-views 4` (the joint refine on 4-view cells rather than 8), and
`analyze` with the geometric and algebraic-refined methods. Four more
commands run the failure and notice paths: `calibrate --pl-outlier-px
0.05` (failed cells), `crossval --pl-outlier-px 0.5` and
`analyze --pl-outlier-px 0.5` (notices of failed calibrations and skipped
analyses), and `analyze --method algebraic --max-views 2` (exit 5).
Last, a ragged copy of the dataset, in which view k of every cell keeps
its first 54 - 4k corners, goes through `calibrate` with every method and
`crossval --method geometric`, so the padded corner stacks of a cell are
exercised end to end. That is 38 commands and 2 ragged copies writing
110 files, 148 output lines. Prints the exit code of each command, then
one `sha256  path` line per file written, with paths relative to the
output directory.

Each command must keep the CLI's error contract: at most one line on
stderr, with no traceback and no warning. Exits 1, naming each command
that broke it on stderr, after the digests are printed.

The commands run as `python -m caliblab` children inside the output
directory. They inherit the environment, with PYTHONPATH made absolute,
so the package on PYTHONPATH is the one measured: two trees compare by
running this once with each tree's `src` and diffing the outputs.

Usage:
    PYTHONPATH=src python scripts/fixture_digests.py --out-dir out/fixtures
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

METHODS = ("geometric", "algebraic", "algebraic-refined")


def commands(sigma_dir: str, sigma: str):
    """(name, argv) of each command for one noise level, in run order."""
    dataset = f"{sigma_dir}/dataset.json"
    yield "simulate", ["simulate", "--camera", "cam1", "--seed", "7", "--noise-sigma", sigma, "--out", dataset]
    for method in METHODS:
        yield f"calibrate-{method}", ["calibrate", "--dataset", dataset, "--method", method]
        yield f"crossval-{method}", ["crossval", "--dataset", dataset, "--method", method]
    yield "calibrate-max-views-3", ["calibrate", "--dataset", dataset, "--max-views", "3"]
    yield "calibrate-algebraic-refined-max-views-4", [
        "calibrate", "--dataset", dataset, "--method", "algebraic-refined", "--max-views", "4"
    ]
    for method in ("geometric", "algebraic-refined"):
        yield f"analyze-{method}", ["analyze", "--dataset", dataset, "--method", method]
    # failure and notice paths: failed cells, skipped analyses, exit 5
    yield "calibrate-pl-outlier-0.05", ["calibrate", "--dataset", dataset, "--pl-outlier-px", "0.05"]
    yield "crossval-pl-outlier-0.5", ["crossval", "--dataset", dataset, "--pl-outlier-px", "0.5"]
    yield "analyze-pl-outlier-0.5", ["analyze", "--dataset", dataset, "--pl-outlier-px", "0.5"]
    yield "analyze-algebraic-max-views-2", [
        "analyze", "--dataset", dataset, "--method", "algebraic", "--max-views", "2"
    ]
    # padded stacks: views of one cell with different corner counts
    ragged = f"{sigma_dir}/ragged.json"
    for method in METHODS:
        yield f"ragged-calibrate-{method}", ["calibrate", "--dataset", ragged, "--method", method]
    yield "ragged-crossval-geometric", ["crossval", "--dataset", ragged, "--method", "geometric"]


def write_ragged(dataset: Path, out: Path) -> None:
    """Copy of a dataset file in which view k of every cell keeps its first
    54 - 4k corners (the ground truth is kept whole)."""
    node = json.loads(dataset.read_text(encoding="utf-8"))
    for cell in node["cells"]:
        for k, view in enumerate(cell["views"]):
            view["corners"] = view["corners"][: 54 - 4 * k]
    out.write_text(json.dumps(node), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True, help="new or empty directory for the fixture files")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        parser.error(f"--out-dir {out_dir} is not empty")
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep) if p)

    broken = []
    for sigma_dir, sigma in (("sigma0", "0"), ("sigma0.5", "0.5")):
        (out_dir / sigma_dir).mkdir(exist_ok=True)
        for name, argv in commands(sigma_dir, sigma):
            if argv[0] != "simulate":
                argv = argv + ["--out-dir", f"{sigma_dir}/{name}"]
            child = subprocess.run(
                [sys.executable, "-m", "caliblab", *argv], cwd=out_dir, env=env, capture_output=True
            )
            print(f"exit {child.returncode}  {sigma_dir}/{name}")
            err = child.stderr.decode("utf-8", "replace")
            if len(err.splitlines()) > 1 or "Traceback" in err or "Warning" in err:
                broken.append(f"{sigma_dir}/{name}: caliblab {' '.join(argv)}")
            if name == "simulate":
                write_ragged(out_dir / sigma_dir / "dataset.json", out_dir / sigma_dir / "ragged.json")

    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir).as_posix()}")
    for command in broken:
        print(f"stderr holds a traceback, a warning or more than one line: {command}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
