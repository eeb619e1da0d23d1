"""Smoke runs of the scripts/ drivers at their smallest arguments."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def _assert_outputs(out_dir, names):
    for name in names:
        path = out_dir / name
        assert path.is_file() and path.stat().st_size > 0, name


def test_design_tradeoff(tmp_path):
    out = tmp_path / "tradeoff.csv"
    proc = _run_script("design_tradeoff.py", "--widths", "2", "--out", out)
    assert proc.returncode == 0, proc.stderr
    _assert_outputs(tmp_path, ["tradeoff.csv", "tradeoff.csv.manifest.json"])
    # a missing output directory is created, as the CLI does
    nested = tmp_path / "new" / "dir" / "tradeoff.csv"
    proc = _run_script("design_tradeoff.py", "--widths", "2", "--out", nested)
    assert proc.returncode == 0, proc.stderr
    _assert_outputs(nested.parent, ["tradeoff.csv", "tradeoff.csv.manifest.json"])
    assert len(out.read_text().splitlines()) == 2  # header and one width


def test_range_sim_example(tmp_path):
    proc = _run_script("range_sim_example.py", "--runs", "1", "--out-dir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    _assert_outputs(tmp_path, [
        "range_sim_example.json",
        "range_sim_example_rmse.csv", "range_sim_example_rmse.csv.manifest.json",
        "range_sim_example_profile.csv", "range_sim_example_profile.csv.manifest.json",
    ])
    assert json.loads((tmp_path / "range_sim_example.json").read_text())["n"] == 128


def test_reproduce_all(tmp_path):
    proc = _run_script("reproduce_all.py", "fig2", "--trials", 16, "--out-dir", tmp_path)
    assert proc.returncode == 0, proc.stderr
    _assert_outputs(tmp_path, ["fig2.csv", "fig2.csv.manifest.json"])


def test_reproduce_all_checks_flags_before_any_recipe(tmp_path):
    # fig1 alone is valid; --runs 0 only matters to fig6, yet nothing is written
    proc = _run_script("reproduce_all.py", "fig1", "fig6", "--runs", 0, "--trials", 4,
                       "--out-dir", tmp_path)
    assert proc.returncode == 2
    assert "--runs must be >= 1" in proc.stderr
    assert list(tmp_path.iterdir()) == []
