"""Smoke run of the scripts/ driver at its smallest arguments."""

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
