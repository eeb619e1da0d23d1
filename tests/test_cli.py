"""End-to-end CLI checks: exit codes, file contracts, determinism."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfshape import acfstats, cli, constellation, modulation, pulse, ranging, shaping, tableio
from acfshape.cli import (_RECIPES, NumericalFailure, _build_scenarios, _resolve_range_config,
                          run)
from helpers import read_csv

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _floats(row):
    return [float(c) if c else math.nan for c in row]


def test_usage_errors():
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["acf-theory", "--bogus-flag"]) == 1
    assert run(["--help"]) == 0


def test_acf_theory_table(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run([
        "acf-theory", "--n", "16", "--l", "4", "--basis", "ofdm",
        "--constellation", "psk8", "--out", str(out),
    ])
    assert code == 0
    echo = json.loads(capsys.readouterr().out.strip())
    assert echo["basis"] == "ofdm" and echo["kurtosis"] == 1.0
    header, rows = read_csv(out)
    assert header == ["lag", "iceberg_db", "sea_db", "total_db"]
    assert len(rows) == 16 * 4
    lag0 = _floats(rows[0])
    assert lag0[0] == 0 and lag0[3] == pytest.approx(0.0, abs=1e-9)
    # unit-modulus symbols on the subcarrier basis leave no variance part
    # beyond cancellation residue, far below any physical sidelobe
    assert all(_floats(r)[2] <= -100.0 for r in rows)
    manifest = json.loads(open(tableio.manifest_path(out)).read())
    assert manifest["command"] == "acf-theory"
    assert manifest["seed"] is None


@pytest.mark.parametrize("name", ["psk65537", "qam262144"])
def test_acf_theory_rejects_huge_constellation_order(tmp_path, capsys, name):
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--constellation", name, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the largest supported" in err
    assert list(tmp_path.iterdir()) == []


def test_acf_theory_rejects_huge_custom_alphabet(tmp_path, capsys):
    alphabet = tmp_path / "alphabet.txt"
    points = np.exp(2j * np.pi * np.arange(65537) / 65537)
    np.savetxt(alphabet, np.column_stack([points.real, points.imag]))
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--constellation", "custom",
                "--constellation-file", str(alphabet), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the largest supported" in err
    assert list(tmp_path.iterdir()) == [alphabet]


@pytest.mark.parametrize("flag, choice, line, message", [
    ("constellation", "custom", "1 0", "more than 8 points"),
    ("basis", "custom", "1 0", "more than 16 rows"),
    ("pulse", "file", "0.5", "more than 4 gains"),
])
def test_text_loaders_stop_one_row_past_their_size(tmp_path, capsys, monkeypatch,
                                                   flag, choice, line, message):
    # one row too many, then a line that cannot be parsed: the size message,
    # not a parse error, shows that the loader stopped before the bad line
    monkeypatch.setattr(constellation, "_MAX_ORDER", 8)
    rows = {"constellation": 9, "basis": 17, "pulse": 5}[flag]
    data = tmp_path / "data.txt"
    data.write_text(f"{line}\n" * rows + "not a number\n")
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--n", "4", "--l", "2", f"--{flag}", choice,
                f"--{flag}-file", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert str(data) in err
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("text", ["", "# a comment, then a blank line\n\n"],
                         ids=["empty", "comments"])
@pytest.mark.parametrize("flag, choice", [
    ("constellation", "custom"), ("basis", "custom"), ("pulse", "file"),
])
def test_text_loaders_refuse_a_file_with_no_values(tmp_path, capsys, recwarn, flag, choice, text):
    # padding no gains would give a brick-wall pulse: a file with no values is refused instead
    data = tmp_path / "data.txt"
    data.write_text(text)
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--n", "4", "--l", "2", f"--{flag}", choice,
                f"--{flag}-file", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{data} holds no values" in err
    assert [str(w.message) for w in recwarn] == []
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("flag, choice", [
    ("constellation", "custom"), ("basis", "custom"), ("pulse", "file"),
])
def test_text_loaders_name_the_file_of_a_parse_error(tmp_path, capsys, flag, choice):
    data = tmp_path / "data.txt"
    data.write_text("not a number\n1 0\n")
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--n", "4", "--l", "2", f"--{flag}", choice,
                f"--{flag}-file", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "could not convert" in err
    assert str(data) in err
    assert list(tmp_path.iterdir()) == [data]


def test_pulse_file_refuses_a_line_of_several_gains(tmp_path, capsys):
    # the README documents one gain per line; a single row of four would
    # otherwise flatten into four gains
    data = tmp_path / "data.txt"
    data.write_text("1 1 0.5 0.5\n")
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--n", "4", "--l", "2", "--pulse", "file",
                "--pulse-file", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{data} holds 4 values on a line" in err
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("flag, rows, message", [
    ("basis", ["nan 0", "0 0", "0 0", "1 0"], "non-finite"),
    ("basis", ["1 0", "0 0", "0 0", "-inf 0"], "non-finite"),
    ("basis", ["1e308 1e308"] * 4, "not unitary"),
    ("constellation", ["1e308 1e308", "-1e308 -1e308"], "mean power is inf"),
    ("constellation", ["1 0", "0 inf", "-1 0", "0 -1"], "non-finite"),
], ids=["basis-nan", "basis-inf", "basis-huge", "constellation-huge", "constellation-inf"])
def test_text_loaders_refuse_non_finite_and_huge_entries(tmp_path, capsys, recwarn,
                                                         flag, rows, message):
    # nan fails every > comparison, so only an explicit check keeps it out of the tables
    data = tmp_path / "data.txt"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--n", "2", "--l", "2", f"--{flag}", "custom",
                f"--{flag}-file", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert [str(w.message) for w in recwarn] == []
    assert list(tmp_path.iterdir()) == [data]


_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 0.5**0.5, -(0.5**0.5), 5e-324, 1e-300,
                            1e308, -1e308, math.nan, math.inf, -math.inf]) | st.floats()
_NAMES = st.sampled_from(["qam16", "psk8", "gaussian", "psk2", "qam8", "psk65537"]) | st.text()


def _rows(count):
    return st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=count[0], max_size=count[1])


def _assert_clean_run(argv, outputs, codes=(0, 2, 3)) -> int:
    """Run the CLI in-process: an exit code in codes, and on failure one
    stderr line, with no traceback, no warning and none of the outputs."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run(argv)
    assert code in codes, err.getvalue()
    assert err.getvalue().count("\n") == (code != 0)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert [os.path.exists(path) for path in outputs] == [code == 0] * len(outputs)
    return code


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4]), st.data())
def test_alphabet_and_basis_flags_fuzz(n, data):
    # valid input writes the table; anything else exits 2 with one line,
    # no traceback, no warning and no file
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "t.csv")
        argv = ["acf-theory", "--n", str(n), "--l", "2", "--out", out]
        for flag, count in (("constellation", (1, 8)), ("basis", (n * n, n * n + 1))):
            if data.draw(st.booleans(), label=f"{flag} file"):
                path = os.path.join(tmp, f"{flag}.txt")
                rows = data.draw(_rows(count), label=f"{flag} rows")
                with open(path, "w") as handle:
                    handle.writelines(f"{x!r} {y!r}\n" for x, y in rows)
                argv += [f"--{flag}", "custom", f"--{flag}-file", path]
            elif flag == "constellation":
                argv.append(f"--constellation={data.draw(_NAMES, label='name')}")
        _assert_clean_run(argv, [out], codes=(0, 2))


def _mostly(valid, anything):
    """valid in about half of the draws, so that runs often reach the computation."""
    return st.booleans().flatmap(lambda ok: valid if ok else anything)


# numbers as a command line spells them; sizes stay small, so that a check
# that regressed could not make a run allocate much
_NUMBER_TEXT = (st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-0",
                                 "0", "1", "0.35", "1.5", "-1", "1e-12"])
                | st.floats().map(repr) | st.integers(-3, 70).map(str))
_FRACTION_TEXT = _mostly(st.floats(0.0, 1.0).map(repr), _NUMBER_TEXT)


@settings(max_examples=80, deadline=None)
@given(_mostly(st.integers(2, 8), st.integers(-2, 1)),
       _mostly(st.integers(2, 4), st.integers(-2, 1)), st.data())
def test_pulse_file_and_grid_flags_fuzz(n, l, data):
    # gain files of 0-3 values a line, of any count, with nan, inf and huge
    # entries, under any grid; acf-theory only divides by --m
    m = _mostly(st.integers(1, 6).map(str),
                st.sampled_from(["0", "-3", "1000000", str(2**63), "1" + "0" * 400]))
    gains = _ENTRIES | st.sampled_from([0.5, 1.0 + 1e-12, -1e-12, 2.0])
    rows = _mostly(st.lists(st.floats(0.0, 1.0).map(lambda g: [g]), max_size=10),
                   st.lists(st.lists(gains, max_size=3), max_size=10))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "t.csv")
        argv = ["acf-theory", f"--n={n}", f"--l={l}", f"--out={out}",
                f"--alpha={data.draw(_FRACTION_TEXT, label='alpha')}",
                f"--m={data.draw(m, label='m')}"]
        if data.draw(st.booleans(), label="pulse file"):
            path = os.path.join(tmp, "pulse.txt")
            with open(path, "w") as handle:
                handle.writelines(" ".join(map(repr, row)) + "\n"
                                  for row in data.draw(rows, label="rows"))
            argv += ["--pulse=file", f"--pulse-file={path}"]
        _assert_clean_run(argv, [out])


@settings(max_examples=80, deadline=None)
@given(_mostly(st.sampled_from([8, 16]), st.sampled_from([-1, 0, 2, 3])),
       _mostly(st.sampled_from([2, 4]), st.sampled_from([-1, 1, 3])), st.data())
def test_shape_flags_fuzz(n, l, data):
    window = st.builds(lambda lo, width: f"{lo}:{lo + width}", st.integers(1, 4),
                       st.integers(0, 3))
    endpoint = st.floats(0.0, 20.0).map(repr) | _NUMBER_TEXT
    region = _mostly(window, st.tuples(endpoint, endpoint).map(":".join) | st.text(max_size=12))
    with tempfile.TemporaryDirectory() as tmp:
        outputs = [os.path.join(tmp, "g.txt"), os.path.join(tmp, "acf.csv")]
        argv = ["shape", f"--n={n}", f"--l={l}",
                f"--alpha={data.draw(_FRACTION_TEXT, label='alpha')}",
                f"--region={data.draw(region, label='region')}",
                f"--region-units={data.draw(st.sampled_from(['symbol', 'lag']), label='units')}",
                f"--objective={data.draw(st.sampled_from(['isl', 'psl']), label='objective')}",
                f"--out-spectrum={outputs[0]}", f"--out-acf={outputs[1]}"]
        if data.draw(st.booleans(), label="tol"):
            tol = _mostly(st.floats(1e-12, 0.5).map(repr), _NUMBER_TEXT)
            argv.append(f"--tol={data.draw(tol, label='tol value')}")
        if data.draw(st.booleans(), label="max-iter"):
            argv.append(f"--max-iter={data.draw(st.integers(-2, 400), label='cap')}")
        _assert_clean_run(argv, outputs)


def test_acf_theory_rejects_bad_rolloff(tmp_path):
    out = tmp_path / "t.csv"
    code = run(["acf-theory", "--n", "16", "--l", "4", "--alpha", "1.5",
                "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["acf-theory", "acf-mc"])
@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "1"], ["--n", "-3"], ["--l", "0"]])
def test_waveform_rejects_bad_sizes(tmp_path, capsys, command, flags):
    out = tmp_path / "t.csv"
    code = run([command, *flags, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be >= 2" in err
    assert not out.exists()


def test_acf_mc_matches_theory_roughly(tmp_path):
    out = tmp_path / "mc.csv"
    code = run([
        "acf-mc", "--n", "16", "--l", "4", "--trials", "400", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    emp = np.array([_floats(r)[1] for r in rows])
    theo = np.array([_floats(r)[2] for r in rows])
    assert np.max(np.abs(emp - theo)) < 1.5  # dB, 400 trials


def test_acf_mc_byte_identical_rerun(tmp_path):
    args = ["acf-mc", "--n", "16", "--l", "4", "--trials", "60", "--seed", "9"]
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_shape_outputs_loadable_gains(tmp_path):
    gains = tmp_path / "g.txt"
    acf = tmp_path / "acf.csv"
    code = run([
        "shape", "--n", "32", "--l", "4", "--alpha", "0.5",
        "--region", "2:6", "--objective", "psl",
        "--out-spectrum", str(gains), "--out-acf", str(acf),
    ])
    assert code == 0
    designed = pulse.from_text_file(gains, 32, 4)
    assert np.all(np.diff(designed.g) >= -1e-9)
    header, rows = read_csv(acf)
    assert header == ["lag", "rrc_db", "designed_db"]
    region = [r for r in rows if 8 <= int(r[0]) <= 24]
    worst_rrc = max(float(r[1]) for r in region)
    worst_designed = max(float(r[2]) for r in region)
    assert worst_designed < worst_rrc - 3.0
    assert json.loads(open(tableio.manifest_path(gains)).read())["command"] == "shape"


def test_shape_region_validation(tmp_path, capsys):
    code = run(["shape", "--n", "16", "--l", "2", "--region", "40:50",
                "--region-units", "lag", "--out-acf", str(tmp_path / "x.csv")])
    assert code == 2
    code = run(["shape", "--n", "16", "--l", "2", "--region", "5",
                "--out-acf", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()
    # endpoints beyond the grid are refused as numbers, before any conversion
    for region, units in [("1:1e308", "symbol"), ("1:inf", "symbol"), ("1:1e308", "lag")]:
        code = run(["shape", "--n", "16", "--l", "2", "--region", region,
                    "--region-units", units, "--out-acf", str(tmp_path / "x.csv"),
                    "--out-spectrum", str(tmp_path / "g.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "outside [1, 31]" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["directory", "file-parent"])
def test_shape_checks_every_destination_before_writing(tmp_path, capsys, bad):
    # the first output would be valid: neither it nor its manifest is written
    first = tmp_path / "g.txt"
    if bad == "directory":
        second = tmp_path / "acf.csv"
        second.mkdir()
    else:
        (tmp_path / "plain").write_text("")
        second = tmp_path / "plain" / "sub" / "acf.csv"
    before = sorted(tmp_path.iterdir())
    code = run(["shape", "--n", "32", "--l", "4", "--region", "2:6",
                f"--out-spectrum={first}", f"--out-acf={second}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"output {second}" in err
    assert sorted(tmp_path.iterdir()) == before


def test_shape_iteration_cap_is_numerical_failure(tmp_path, capsys):
    code = run([
        "shape", "--n", "32", "--l", "4", "--alpha", "0.5", "--region", "2:6",
        "--max-iter", "5", "--out-acf", str(tmp_path / "x.csv"),
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "1"],
    ["--max-iter", "0"], ["--max-iter", "-5"], ["--objective", "isl", "--tol", "1e-3"],
], ids=["tol-0", "tol-neg", "tol-nan", "tol-inf", "tol-1", "cap-0", "cap-neg", "isl-tol"])
def test_shape_rejects_bad_solver_stops(tmp_path, capsys, monkeypatch, flags):
    def no_design(*args, **kwargs):
        raise AssertionError("a design ran")

    monkeypatch.setattr(shaping, "solve_box_qp", no_design)
    monkeypatch.setattr(shaping, "solve_minimax", no_design)
    code = run([
        "shape", "--n", "32", "--l", "4", "--alpha", "0.5", "--region", "2:6", *flags,
        "--out-acf", str(tmp_path / "x.csv"), "--out-spectrum", str(tmp_path / "g.txt"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid configuration" in err
    assert list(tmp_path.iterdir()) == []


def test_design_manifests_report_solver_stats(tmp_path, capsys):
    assert run(["reproduce", "fig4", "--out-dir", str(tmp_path)]) == 0
    for name, header, count in [("fig4_acf.csv", ["lag", "rrc_db", "designed_db"], 1280),
                                ("fig4_spectrum.csv", ["bin", "rrc", "designed"], 128)]:
        got, rows = read_csv(tmp_path / name)
        assert got == header and len(rows) == count
        params = json.loads(open(tableio.manifest_path(tmp_path / name)).read())["parameters"]
        assert 1 <= params["iterations"] < 20_000
        assert 0 <= params["gap"] <= 1e-4
    gains = tmp_path / "g.txt"
    assert run(["shape", "--n", "32", "--l", "4", "--alpha", "0.5", "--region", "2:6",
                "--objective", "isl", "--out-spectrum", str(gains)]) == 0
    params = json.loads(open(tableio.manifest_path(gains)).read())["parameters"]
    assert params["gap"] == 0.0 and params["iterations"] >= 1
    capsys.readouterr()


def _manifest_parameters(path) -> dict:
    return json.loads(pathlib.Path(tableio.manifest_path(path)).read_text())["parameters"]


@pytest.mark.parametrize("objective", ["isl", "psl"])
@pytest.mark.parametrize("region", ["389:390", "389:391"])
def test_shape_converges_on_exact_fits(tmp_path, capsys, objective, region):
    # the gains can match these windows exactly: the optimum is round-off
    gains = tmp_path / "g.txt"
    assert run(["shape", "--n", "128", "--l", "10", "--region", region,
                "--region-units", "lag", "--objective", objective,
                "--out-spectrum", str(gains)]) == 0
    params = _manifest_parameters(gains)
    assert params["baseline_value"] > 1e-8 and params["objective_value"] < 1e-24
    assert params["gap"] == 0.0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["shape", "--region", "5:15", "--out-acf", "acf.csv"],
    ["reproduce", "fig4"],
], ids=["shape", "fig4"])
def test_design_commands_build_the_maps_once(tmp_path, capsys, monkeypatch, argv):
    # the RRC baseline is reported through mean_acf, not a second table
    calls = []
    maps = shaping.sidelobe_maps

    def counted(*args):
        calls.append(args)
        return maps(*args)

    monkeypatch.setattr(shaping, "sidelobe_maps", counted)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_shape_psl_reaches_a_tight_gap(tmp_path, capsys):
    gains = tmp_path / "g.txt"
    assert run(["shape", "--n", "128", "--l", "10", "--region", "10:30", "--objective", "psl",
                "--tol", "1e-8", "--out-spectrum", str(gains)]) == 0
    params = _manifest_parameters(gains)
    assert 0.0 <= params["gap"] <= 1e-8 and params["iterations"] < 1_000
    capsys.readouterr()


def _targets(**strong):
    return [
        {"range_m": 3.0, "gain_db": 0.0, "label": "strong"} | strong,
        {"range_m": 9.0, "gain_db": -20.0, "label": "weak"},
    ]


def _write_config(path, **overrides):
    cfg = {
        "n": 32, "l": 4, "alpha": 0.5,
        "bandwidth_hz": 200e6,
        "m": 1,
        "targets": _targets(),
        "estimate": "weak",
        "roi_m": [6.0, 12.0],
        "methods": [
            {"name": "ofdm_rrc", "constellation": "psk16", "basis": "ofdm",
             "pulse": "rrc"},
        ],
        "sweep": {"snr_db": [10.0, 30.0], "runs": 4},
        "seed": 11,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_range_sim_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    prefix = str(tmp_path / "rs")
    code = run(["range-sim", "--config", str(cfg), "--out-prefix", prefix])
    assert code == 0
    echo = json.loads(capsys.readouterr().out.strip())
    assert echo["roi_lags"] == [32, 64]
    header, rows = read_csv(prefix + "_rmse.csv")
    assert header == [
        "snr_db", "ofdm_rrc_rmse_m", "ofdm_rrc_rmse_hits_m",
        "ofdm_rrc_success_rate",
    ]
    assert len(rows) == 2
    # a -20 dB target with no averaging and mild noise is an easy catch
    assert float(rows[1][3]) == 1.0
    header, rows = read_csv(prefix + "_profile.csv")
    assert header == ["range_m", "ofdm_rrc_db"]
    assert len(rows) == 32 * 4
    manifest = json.loads(open(prefix + "_rmse.csv.manifest.json").read())
    assert manifest["parameters"]["snr_definition"].startswith("strong-path")


# runs each argv of a JSON list through cli.run, one after another, in this process
_CHILD = """
import json, sys
from acfshape.cli import run
for argv in json.loads(sys.argv[1]):
    code = run(argv)
    if code:
        sys.exit(f"{argv[0]} exited {code}")
"""


def _child_outputs(threads, commands):
    """Run CLI commands in turn in one child process at a BLAS thread count.

    commands lists (argv, outputs); returns the bytes of every output, in order.
    """
    env = os.environ | {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": str(threads)}
    argvs = json.dumps([[str(arg) for arg in argv] for argv, _ in commands])
    proc = subprocess.run([sys.executable, "-c", _CHILD, argvs],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [pathlib.Path(path).read_bytes() for _, outputs in commands for path in outputs]


def _thread_commands(tmp, out):
    """The thread-identity commands, writing under out: (argv, outputs) lists by test.

    range-sim: the closed forms, custom-basis Monte Carlo, OFDM Monte Carlo
    through the class-count draw, RRC ranging and both design solvers at
    the paper's 5:15 window.  fig6: the grouped ranging kernel, designed
    and RRC columns on both bases.  fig7: both design solvers at the 10:30
    window, then fig7's designed columns and its class-count group.
    """
    custom = ["--basis", "custom", "--basis-file", tmp / "haar.txt"]
    return {
        "range-sim": [
            (["range-sim", "--config", tmp / "cfg.json", "--out-prefix", out / "rs"],
             [out / "rs_rmse.csv", out / "rs_profile.csv"]),
            (["acf-theory", *custom, "--out", out / "theory.csv"], [out / "theory.csv"]),
            (["acf-mc", *custom, "--trials", 100, "--out", out / "mc.csv"], [out / "mc.csv"]),
            (["acf-mc", "--basis", "ofdm", "--m", 50, "--trials", 20, "--out", out / "ofdm.csv"],
             [out / "ofdm.csv"]),
            (["shape", "--objective", "isl", "--region", "5:15", "--out-spectrum",
              out / "isl.txt"], [out / "isl.txt"]),
            (["shape", "--objective", "psl", "--region", "5:15", "--out-spectrum",
              out / "psl.txt"], [out / "psl.txt"]),
        ],
        "fig6": [(["reproduce", "fig6", "--runs", 2, "--out-dir", out],
                  [out / "fig6_rmse.csv", out / "fig6_profile.csv"])],
        "fig7": [
            (["shape", "--objective", "psl", "--region", "10:30", "--out-spectrum",
              out / "psl_10_30.txt"], [out / "psl_10_30.txt"]),
            (["shape", "--objective", "isl", "--region", "10:30", "--out-spectrum",
              out / "isl_10_30.txt"], [out / "isl_10_30.txt"]),
            (["reproduce", "fig7", "--runs", 2, "--out-dir", out],
             [out / "fig7_rmse.csv", out / "fig7_profile.csv"]),
        ],
    }


@pytest.fixture(scope="module")
def thread_outputs(tmp_path_factory):
    """Every thread-identity command, run in one child per BLAS thread count (1 and 2).

    Returns {threads: {test key: output bytes}} and the working directory.
    """
    tmp = tmp_path_factory.mktemp("threads")
    _write_config(tmp / "cfg.json")
    haar = modulation.random_unitary(128, np.random.default_rng(5)).u.reshape(-1)
    np.savetxt(tmp / "haar.txt", np.column_stack([haar.real, haar.imag]))
    by_threads = {}
    for threads in (1, 2):
        commands = _thread_commands(tmp, tmp / str(threads))
        written = iter(_child_outputs(threads, [c for listed in commands.values() for c in listed]))
        by_threads[threads] = {
            key: [next(written) for _, outputs in listed for _ in outputs]
            for key, listed in commands.items()
        }
    return by_threads, tmp


def test_range_sim_byte_identical_across_thread_counts(thread_outputs):
    by_threads, _ = thread_outputs
    assert by_threads[1]["range-sim"] == by_threads[2]["range-sim"]


def test_reproduce_fig6_byte_identical_across_thread_counts(thread_outputs):
    by_threads, tmp = thread_outputs
    assert by_threads[1]["fig6"] == by_threads[2]["fig6"]
    header = read_csv(tmp / "1" / "fig6_rmse.csv")[0]
    assert {"sc_designed_rmse_m", "ofdm_rrc_rmse_m"} <= set(header)


def test_designs_at_10_30_and_fig7_byte_identical_across_thread_counts(thread_outputs):
    by_threads, tmp = thread_outputs
    assert by_threads[1]["fig7"] == by_threads[2]["fig7"]
    header = read_csv(tmp / "1" / "fig7_rmse.csv")[0]
    assert {"designed_m1_rmse_m", "designed_m1000_rmse_m"} <= set(header)


def test_a_command_after_others_writes_what_a_fresh_child_writes(thread_outputs):
    # the shared child ran fig6 after every range-sim command: nothing one
    # command leaves in the process may change what a later one writes
    by_threads, tmp = thread_outputs
    fresh = _thread_commands(tmp, tmp / "fresh")["fig6"]
    assert _child_outputs(1, fresh) == by_threads[1]["fig6"]


def test_range_sim_checks_both_tables_before_writing(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    (tmp_path / "rs_profile.csv").mkdir()
    code = run(["range-sim", "--config", str(cfg), "--out-prefix", str(tmp_path / "rs")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"output {tmp_path / 'rs_profile.csv'} is a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "rs_profile.csv"]


def test_range_sim_lists_every_config_issue(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 32, "l": 4, "alpha": 0.5,
        "targets": [],
        "roi_m": [12.0, 6.0],
        "methods": [{"name": "no spaces allowed", "constellation": "psk16",
                     "basis": "ofdm"}],
        "sweep": {"snr_db": [], "runs": 0},
    }))
    code = run(["range-sim", "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    for needle in ["targets", "roi_m", "name", "snr_db", "runs"]:
        assert needle in err


_DESIGNED = {"name": "designed", "constellation": "psk16", "basis": "ofdm",
             "pulse": "designed", "objective": "isl"}
_RRC = {"name": "ofdm_rrc", "constellation": "psk16", "basis": "ofdm", "pulse": "rrc"}


@pytest.mark.parametrize("override, flags, key", [
    ({"l": 0}, [], "l"),
    ({"sweep": {"snr_db": [10.0, 30.0], "runs": True}}, [], "sweep.runs"),
    ({"n": True}, [], "n"),
    ({"alpha": 1.5}, [], "alpha"),
    ({"sweep": {"snr_db": [10.0, 1e308], "runs": 4}}, [], "sweep.snr_db"),
    ({"sweep": {"snr_db": [-1e308], "runs": 4}}, [], "sweep.snr_db"),
    ({}, ["--profile-snr-db", "1e308"], "profile_snr_db"),
    ({"methods": [_DESIGNED | {"region": [1, 1e308]}]}, [], "methods[0].region"),
    ({"methods": [_DESIGNED | {"region": [1, 1e308], "region_units": "lag"}]}, [],
     "methods[0].region"),
    ({"targets": _targets(range_m=1e308)}, [], "targets[0].range_m"),
    ({"targets": _targets(range_m=10**400)}, [], "targets[0].range_m"),
    ({"roi_m": [6.0, 1e308]}, [], "roi_m"),
    ({"roi_m": [-6.0, 12.0]}, [], "roi_m"),
    ({"bandwidth_hz": 1e308}, [], "bandwidth_hz"),
    ({"bandwidth_hz": 1e-306}, [], "bandwidth_hz"),
    ({"targets": _targets(gain_db=1e308)}, [], "targets[0].gain_db"),
    ({"targets": [t | {"gain_db": -8000} for t in _targets()]}, [], "targets[1].gain_db"),
    ({"n": 10**400}, [], "n"),
    ({"l": 10**400}, [], "l"),
    ({"sweep": {"snr_db": [10.0, 30.0], "runs": 10**400}}, [], "sweep.runs"),
    ({"targets": [t | {"label": "w"} for t in _targets()], "estimate": "w"}, [],
     "targets[1].label"),
    ({"targets": _targets(label=5)}, [], "targets[0].label"),
    ({"estimate": 1}, [], "estimate"),
    ({"sweeps": {"runs": 4}}, [], "sweeps"),
    ({"sweep": {"snr_db": [10.0], "runs": 4, "seeds": 2}}, [], "sweep.seeds"),
    ({"targets": [_targets()[0], {"range_m": 9.0, "gain_bd": -20.0, "label": "weak"}]}, [],
     "targets[1].gain_bd"),
    ({"methods": [_DESIGNED | {"regoin": [5, 15]}]}, [], "methods[0].regoin"),
    ({"methods": [_RRC | {"region": [5, 15]}]}, [], "methods[0].region"),
    ({"methods": [_RRC | {"constellation": "qam15"}]}, [], "methods[0].constellation"),
    ({"methods": [_RRC | {"constellation": "psk65537"}]}, [], "methods[0].constellation"),
    ({"methods": [_RRC | {"basis": "custom"}]}, [], "methods[0].basis"),
    ({"methods": [_RRC | {"pulse": "file", "pulse_file": "no/such/gains.txt"}]}, [],
     "methods[0].pulse_file"),
    ({"methods": [_RRC, _RRC]}, [], "methods[1].name"),
    ({"bad\nkey": 1}, [], "bad key"),
], ids=["l-zero", "runs-bool", "n-bool", "alpha-above-one", "snr-huge",
        "snr-tiny", "profile-snr-huge", "region-huge", "lag-region-huge",
        "range-huge", "range-huge-int", "roi-huge", "roi-negative", "bandwidth-huge",
        "bandwidth-tiny", "gain-huge", "gain-tiny", "n-huge-int", "l-huge-int",
        "runs-huge-int", "label-duplicate", "label-int", "estimate-int", "unknown-top",
        "unknown-sweep", "unknown-target", "unknown-method", "region-on-rrc",
        "constellation-unknown", "constellation-order-huge", "basis-unknown", "pulse-file-missing", "name-duplicate",
        "unknown-key-newline"])
def test_range_sim_rejects_out_of_range_values(tmp_path, capsys, override, flags, key):
    cfg = _write_config(tmp_path / "cfg.json", **override)
    code = run(["range-sim", "--config", str(cfg), "--out-prefix", str(tmp_path / "rs")]
               + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "config invalid" in err and f" {key}: " in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("override, key", [
    ({"m": 10**400}, "m"),
    ({"methods": [{"name": "a", "constellation": "psk16", "basis": "ofdm", "m": 10**400}]},
     "methods[0].m"),
])
def test_range_config_rejects_huge_slot_counts(tmp_path, override, key):
    # checked on the config alone: a regression would loop over every slot
    cfg = json.loads(_write_config(tmp_path / "cfg.json", **override).read_text())
    with pytest.raises(ValueError, match=rf" {re.escape(key)}: positive integer required"):
        _resolve_range_config(cfg)


@pytest.mark.parametrize("m", [2**53 + 1, 2**63, 10**400])
def test_slot_counts_beyond_2_53_exit_2(tmp_path, m):
    # every command that takes m refuses it with one line, before any work
    out = tmp_path / "t.csv"
    for command in ("acf-theory", "acf-mc"):
        argv = [command, "--n=8", "--l=2", "--basis=ofdm", f"--m={m}", f"--out={out}"]
        assert _assert_clean_run(argv, [out], codes=(2,)) == 2
    method = {"name": "a", "constellation": "qam16", "basis": "ofdm", "pulse": "rrc"}
    for override in ({"m": m}, {"methods": [method | {"m": m}]}):
        cfg = _write_config(tmp_path / "cfg.json", **override)
        prefix = tmp_path / "rs"
        argv = ["range-sim", "--config", str(cfg), "--out-prefix", str(prefix)]
        assert _assert_clean_run(argv, [f"{prefix}_rmse.csv", f"{prefix}_profile.csv"],
                                 codes=(2,)) == 2


def test_acf_theory_takes_2_53_slots(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["acf-theory", "--n=8", "--l=2", "--basis=ofdm", f"--m={2**53}",
                f"--out={out}"]) == 0


_PSL_FIRST = [_DESIGNED | {"objective": "psl", "region": [2, 6]}]
_SAME_LAG = [{"range_m": 3.0, "label": "strong"},
             {"range_m": 3.05, "gain_db": -20.0, "label": "weak"}]


_QAM15 = "methods[1].constellation: only square QAM orders"
_LAG16 = "targets[1].range_m: maps to lag 16, same as targets[0]"


@pytest.mark.parametrize("override, needles", [
    ({"methods": _PSL_FIRST + [_RRC | {"constellation": "qam15"}]}, [_QAM15]),
    ({"methods": _PSL_FIRST, "targets": _SAME_LAG}, [_LAG16]),
    ({"methods": _PSL_FIRST + [_RRC | {"constellation": "qam15"}], "targets": _SAME_LAG},
     [_LAG16, _QAM15]),
], ids=["constellation", "same-lag", "both"])
def test_range_sim_reports_build_errors_before_any_design(tmp_path, capsys, monkeypatch,
                                                          override, needles):
    designs = []
    monkeypatch.setattr(shaping, "design_pulse", lambda *args, **kwargs: designs.append(args))
    cfg = _write_config(tmp_path / "cfg.json", **override)
    code = run(["range-sim", "--config", str(cfg), "--out-prefix", str(tmp_path / "rs")])
    assert code == 2 and designs == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and all(f" {needle}" in err for needle in needles)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_range_sim_designs_each_distinct_pulse_once(tmp_path, monkeypatch):
    designs = []
    original = shaping.design_pulse

    def counted(spec, **kwargs):
        designs.append((spec.objective, spec.region.tolist()))
        return original(spec, **kwargs)

    monkeypatch.setattr(shaping, "design_pulse", counted)
    methods = [_DESIGNED | {"name": "a", "region": [2, 6]},
               _DESIGNED | {"name": "b", "region": [2, 6], "basis": "sc", "m": 3},
               _DESIGNED | {"name": "c", "region": [3, 6]}]
    cfg = _write_config(tmp_path / "cfg.json", methods=methods)
    assert run(["range-sim", "--config", str(cfg), "--out-prefix", str(tmp_path / "rs")]) == 0
    assert len(designs) == 2 and designs[0] != designs[1]  # a and b share one design


def test_range_sim_manifests_record_each_design(tmp_path, capsys):
    methods = [_RRC, _DESIGNED | {"name": "a", "region": [2, 6]},
               _DESIGNED | {"name": "b", "region": [2, 6], "objective": "psl"}]
    cfg = _write_config(tmp_path / "cfg.json", methods=methods)
    prefix = str(tmp_path / "rs")
    assert run(["range-sim", "--config", str(cfg), "--out-prefix", prefix]) == 0
    for table in ("_rmse.csv", "_profile.csv"):
        designs = _manifest_parameters(prefix + table)["designs"]
        assert sorted(designs) == ["a", "b"]
        for name, stats in designs.items():
            assert sorted(stats) == ["gap", "iterations", "value"]
            assert stats["iterations"] >= 1 and stats["value"] > 0
        assert designs["a"]["gap"] == 0.0 and 0.0 <= designs["b"]["gap"] <= 1e-4
    capsys.readouterr()


@pytest.mark.parametrize("estimate, range_m", [("weak", 9.0), ("strong", 3.0)])
def test_range_sim_tracks_the_labelled_target(tmp_path, capsys, estimate, range_m):
    cfg = _write_config(tmp_path / "cfg.json", estimate=estimate)
    assert run(["range-sim", "--config", str(cfg), "--out-prefix", str(tmp_path / "rs")]) == 0
    assert abs(json.loads(capsys.readouterr().out)["true_range_m"] - range_m) < 0.1


# wrong types and out-of-range values for any field of the fig6 config
_BAD_VALUES = [None, True, -1, 0, 1, 1.5, 1e308, -1e308, 10**400, "", "x", "qam15", "psk2",
               "custom", "cdma", "file", "designed", "lag", [], [1], [2, 1], [1, 1e308],
               [0.0, 0.0], {}, {"x": 1}]
_BAD_REPR = repr(_BAD_VALUES)


def _dicts(value):
    """Every object nested in a JSON value, outermost first."""
    if isinstance(value, dict):
        yield value
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, (dict, list)):
            yield from _dicts(item)


@st.composite
def _mutated_fig6(draw):
    cfg = json.loads(json.dumps(_RECIPES["fig6"]["config"]))
    # n >= 42 keeps the fig6 targets and roi on the grid; n x n bases stay small
    cfg["n"], cfg["l"] = draw(st.integers(42, 64)), draw(st.integers(2, 64))
    cfg["sweep"]["runs"] = 1
    for _ in range(draw(st.integers(1, 3))):
        obj = draw(st.sampled_from(list(_dicts(cfg))))
        key = draw(st.sampled_from(sorted(obj) or ["n"]))
        action = draw(st.sampled_from(["drop", "add", "swap", "duplicate"]))
        if action == "drop":
            obj.pop(key, None)
        elif action == "add":
            obj[draw(st.sampled_from(["sweeps", "regoin", "gain_bd", "label", "m"]))] = 1
        elif action == "swap":
            # a copy: later mutations edit the config, never the shared list
            obj[key] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
        else:
            group = draw(st.sampled_from(["targets", "methods"]))
            items = list(_dicts(cfg.get(group) if isinstance(cfg.get(group), list) else []))
            if len(items) >= 2:
                field = "label" if group == "targets" else "name"
                items[1][field] = items[0].get(field, "x")
    return cfg


@settings(max_examples=150, deadline=None)
@given(_mutated_fig6())
def test_range_config_fuzz_returns_or_reports(cfg):
    try:
        _resolve_range_config(cfg)
    except ValueError as exc:
        assert str(exc).startswith("config invalid")
    assert repr(_BAD_VALUES) == _BAD_REPR  # replays draw from the same values


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("exc", [
    NumericalFailure("diverged"),
    np.linalg.LinAlgError("SVD did not converge"),
    MemoryError("Unable to allocate 1.00 EiB"),
    OverflowError("int too large to convert to float"),
    RuntimeError("first line\nsecond line"),
], ids=lambda exc: type(exc).__name__)
def test_unexpected_errors_exit_numerical(tmp_path, capsys, monkeypatch, exc):
    monkeypatch.setattr(acfstats, "expected_sq_acf", _raise(exc))
    code = run(["acf-theory", "--n", "8", "--l", "2", "--out", str(tmp_path / "t.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"numerical failure: {type(exc).__name__}: ")
    assert list(tmp_path.iterdir()) == []


def test_negative_table_value_exits_numerical(tmp_path, capsys, monkeypatch):
    exact = acfstats.expected_sq_acf

    def negated(*args, **kwargs):
        stats = exact(*args, **kwargs)
        return acfstats.AcfStats(stats.lags, stats.squared_mean, -stats.variance)

    monkeypatch.setattr(acfstats, "expected_sq_acf", negated)
    code = run(["acf-theory", "--n", "8", "--l", "2", "--out", str(tmp_path / "t.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: FloatingPointError: ")
    assert list(tmp_path.iterdir()) == []


def test_short_table_column_exits_numerical(tmp_path, capsys, monkeypatch):
    # a column one value short of the lag column must not truncate the table
    exact = acfstats.to_db_of_peak

    def short(*args, **kwargs):
        return exact(*args, **kwargs)[:-1]

    monkeypatch.setattr(acfstats, "to_db_of_peak", short)
    out = tmp_path / "t.csv"
    code = run(["acf-theory", "--n", "8", "--l", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: NumericalFailure: ")
    assert str(out) in err and "'iceberg_db'" in err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_table_cell_exits_numerical(tmp_path, capsys, monkeypatch):
    # a NaN in the second dB column (sea_db) names the file and that column
    exact, calls = acfstats.to_db_of_peak, []

    def nan_in_second(*args, **kwargs):
        values = exact(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            values[3] = np.nan
        return values

    monkeypatch.setattr(acfstats, "to_db_of_peak", nan_in_second)
    out = tmp_path / "t.csv"
    code = run(["acf-theory", "--n", "8", "--l", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: NumericalFailure: ")
    assert str(out) in err and "'sea_db'" in err and "nan" in err
    assert list(tmp_path.iterdir()) == []


def test_shape_gain_file_nan_names_the_file(tmp_path, capsys, monkeypatch):
    design = shaping.design_pulse

    def nan_gain(*args, **kwargs):
        result = design(*args, **kwargs)
        gains = result.pulse.g.copy()
        gains[-1] = np.nan
        return dataclasses.replace(result, pulse=types.SimpleNamespace(g=gains))

    monkeypatch.setattr(shaping, "design_pulse", nan_gain)
    gains = tmp_path / "g.txt"
    code = run(["shape", "--n", "32", "--l", "4", "--region", "2:6", f"--out-spectrum={gains}"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: NumericalFailure: "
                   f"{gains}: non-finite value nan in output table\n")
    assert list(tmp_path.iterdir()) == []


def test_a_failing_recipe_leaves_the_recipes_before_it_unwritten(tmp_path, capsys, monkeypatch):
    # fig4 has finished when fig5's Monte Carlo fails: neither writes a file
    monkeypatch.setattr(cli, "run_trials", _raise(NumericalFailure("trials diverged")))
    code = run(["reproduce", "fig4", "fig5", "--trials", "4", "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: NumericalFailure: trials diverged\n"
    assert list(tmp_path.iterdir()) == []


def test_a_non_finite_profile_leaves_neither_ranging_table(tmp_path, capsys, monkeypatch):
    # the rmse table comes first and is sound; the profile table is not
    profile = ranging.profile_db

    def nan_profile(*args, **kwargs):
        values = profile(*args, **kwargs)
        values[5] = np.nan
        return values

    monkeypatch.setattr(ranging, "profile_db", nan_profile)
    code = run(["reproduce", "fig6", "--runs", "1", "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{tmp_path / 'fig6_profile.csv'}: column 'sc_rrc_db'" in err
    assert list(tmp_path.iterdir()) == []


def test_range_sim_runs_at_the_snr_bounds(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json", n=4, l=2, roi_m=[0.5, 2.5],
        targets=[{"range_m": 0.0, "label": "strong"},
                 {"range_m": 1.5, "gain_db": -20.0, "label": "weak"}],
        sweep={"snr_db": [-300.0, 300.0], "runs": 2},
    )
    prefix = str(tmp_path / "rs")
    for bound in ("-300", "300"):
        assert run(["range-sim", "--config", str(cfg), "--out-prefix", prefix,
                    "--profile-snr-db", bound]) == 0
        _, rows = read_csv(prefix + "_rmse.csv")
        # rmse_hits_m (column 2) is empty when no run hits
        assert np.isfinite(np.delete(np.array([_floats(r) for r in rows]), 2, axis=1)).all()
        _, rows = read_csv(prefix + "_profile.csv")
        assert np.isfinite(np.array([_floats(r) for r in rows])).all()


def test_range_sim_missing_config_file(tmp_path):
    assert run(["range-sim", "--config", str(tmp_path / "nope.json")]) == 2


_RANGING_COLUMNS = ("rmse_m", "rmse_hits_m", "success_rate")


def _ranging_layout(figure, methods):
    return {
        f"{figure}_rmse.csv": (
            ["snr_db"] + [f"{m}_{c}" for m in methods for c in _RANGING_COLUMNS], 5
        ),
        f"{figure}_profile.csv": (["range_m"] + [f"{m}_db" for m in methods], 1280),
    }


# file -> (header, row count) for every recipe except the psl design
_RECIPE_LAYOUTS = {
    "fig1": {"fig1.csv": ([
        "lag", "pulse_db", "theory_m1_db", "empirical_m1_db",
        "theory_m100_db", "empirical_m100_db",
    ], 1280)},
    "fig2": {"fig2.csv": ([
        "lag", "theory_sc_db", "empirical_sc_db", "theory_cdma_db",
        "empirical_cdma_db", "theory_ofdm_db", "empirical_ofdm_db",
    ], 1280)},
    "fig3": {"fig3.csv": ([
        "lag", "theory_psk16_db", "empirical_psk16_db", "theory_qam16_db",
        "empirical_qam16_db", "theory_qam1024_db", "empirical_qam1024_db",
        "theory_gaussian_db", "empirical_gaussian_db",
    ], 1280)},
    "fig5": {"fig5.csv": ([
        "lag", "theory_sc_db", "empirical_sc_db", "theory_ofdm_db", "empirical_ofdm_db",
    ], 1280)},
    "fig6": _ranging_layout("fig6", ["sc_rrc", "sc_designed", "ofdm_rrc", "ofdm_designed"]),
    "fig7": _ranging_layout("fig7", ["rrc_m1", "designed_m1", "rrc_m1000", "designed_m1000"]),
}


@pytest.mark.parametrize("figure", sorted(_RECIPE_LAYOUTS))
def test_reproduce_recipe_layout(tmp_path, figure):
    code = run(["reproduce", figure, "--trials", "16", "--runs", "2",
                "--out-dir", str(tmp_path)])
    assert code == 0
    for name, (header, count) in _RECIPE_LAYOUTS[figure].items():
        got, rows = read_csv(tmp_path / name)
        assert got == header
        assert len(rows) == count
        assert (tmp_path / (name + ".manifest.json")).exists()


@pytest.mark.parametrize("flags", [
    ["all", "--runs", "0", "--trials", "4"], ["all", "--trials", "1"],
    ["fig1", "--runs", "0", "--trials", "4"], ["fig4", "--seed", "-1"],
    ["fig1", "fig6", "--runs", "0", "--trials", "4"],
], ids=["all-runs", "all-trials", "fig1-runs", "fig4-seed", "fig1-fig6-runs"])
def test_reproduce_checks_flags_before_writing(tmp_path, capsys, flags):
    # every flag is checked up front, whichever recipes are named
    assert run(["reproduce", *flags, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    flag = next(f for f in flags if f.startswith("--"))
    assert err.count("\n") == 1 and f"{flag} must be" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("recipes, taken", [
    (["fig4"], "fig4_spectrum.csv"),
    (["fig1", "fig7"], "fig7_profile.csv"),
    (["fig6", "fig5"], "fig5.csv.manifest.json"),
], ids=["fig4-second-table", "fig7-after-fig1", "fig5-manifest"])
def test_reproduce_checks_every_destination_before_writing(tmp_path, capsys, recipes, taken):
    # a directory in the place of any selected recipe's table or manifest
    # stops the command before the first recipe writes anything
    (tmp_path / taken).mkdir()
    assert run(["reproduce", *recipes, "--trials", "4", "--runs", "1",
                "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"output {tmp_path / taken} is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == [taken]


def _child_with_stdout(stdout, out):
    """Run acf-theory in a child process writing its summary to stdout."""
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "acfshape", "acf-theory", "--n", "8", "--l", "2",
                           "--out", str(out)], env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


@pytest.mark.parametrize("target", ["full-device", "closed-pipe"])
def test_unwritable_stdout_ends_with_one_line(tmp_path, target):
    out = tmp_path / "t.csv"
    if target == "full-device":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        with open("/dev/full", "w") as full:
            proc = _child_with_stdout(full, out)
        reason = "No space left on device"
    else:  # the reader is gone before the child writes
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _child_with_stdout(write, out)
        finally:
            os.close(write)
        reason = "Broken pipe"
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("cannot write the summary to stdout") and reason in proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert read_csv(out)[0] == ["lag", "iceberg_db", "sea_db", "total_db"]  # written before
    assert os.path.isfile(tableio.manifest_path(out))


def test_reproduce_runs_several_recipes(tmp_path, capsys):
    assert run(["reproduce", "fig5", "fig2", "--trials", "16", "--out-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["figures"] == ["fig5", "fig2"]
    assert re.fullmatch(r"fig5: \d+\.\d\ds\nfig2: \d+\.\d\ds\n", err)
    for name in ("fig5.csv", "fig2.csv"):
        assert (tmp_path / name).is_file() and (tmp_path / (name + ".manifest.json")).is_file()


def test_range_sim_example_config(tmp_path, capsys):
    prefix = tmp_path / "example"
    assert run(["range-sim", "--config", str(ROOT / "scripts" / "range_sim_example.json"),
                "--runs", "1", "--out-prefix", str(prefix)]) == 0
    header, rows = read_csv(f"{prefix}_rmse.csv")
    assert len(header) == 13 and len(rows) == 5
    assert (tmp_path / "example_profile.csv.manifest.json").is_file()
    capsys.readouterr()


def test_reproduce_fig6_equals_range_sim_on_its_config(tmp_path):
    cfg = tmp_path / "fig6.json"
    cfg.write_text(json.dumps(_RECIPES["fig6"]["config"]))
    assert run(["reproduce", "fig6", "--runs", "2", "--out-dir", str(tmp_path / "rep")]) == 0
    prefix = str(tmp_path / "rs")
    assert run(["range-sim", "--config", str(cfg), "--runs", "2", "--seed", "0",
                "--out-prefix", prefix]) == 0
    for suffix in ("_rmse.csv", "_profile.csv"):
        recipe = (tmp_path / "rep" / f"fig6{suffix}").read_bytes()
        assert recipe == (tmp_path / f"rs{suffix}").read_bytes()


@pytest.mark.parametrize("recipe, groups", [
    ("fig6", [[0, 1, 2, 3]]),    # 16-PSK at one slot: SC and OFDM, RRC and designed
    ("fig7", [[0, 1], [2, 3]]),  # 16-QAM OFDM: the m=1 slot draws, the m=1000 class counts
])
def test_ranging_recipes_draw_once_per_group(recipe, groups):
    echo, scene = _resolve_range_config(_RECIPES[recipe]["config"], 1, 0)
    scenarios, _ = _build_scenarios(echo, scene)
    assert ranging._draw_groups([s for _, s in scenarios]) == groups
