"""CSV and manifest text, and the one commit: formatting, quoting, atomicity, round trips."""

import errno
import json
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfshape import tableio
from helpers import read_csv


def _write(path, table):
    tableio.commit([(path, tableio.csv_text(table))])


def test_format_cell_rules():
    assert tableio.format_cell(None) == ""
    assert tableio.format_cell("text") == "text"
    assert tableio.format_cell(True) == "true"
    assert tableio.format_cell(7) == "7"
    assert tableio.format_cell(0.1) == "0.1"
    assert tableio.format_cell(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)
    with pytest.raises(ValueError, match="non-finite"):
        tableio.format_cell(float("nan"))
    with pytest.raises(ValueError, match="non-finite"):
        tableio.format_cell(float("inf"))


def test_emit_and_read_back(tmp_path):
    path = tmp_path / "t.csv"
    _write(path, {"a": [1, 2], "b": [0.5, None]})
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows == [["1", "0.5"], ["2", ""]]
    raw = path.read_bytes()
    assert raw == b"a,b\n1,0.5\n2,\n"


def test_header_only_table(tmp_path):
    path = tmp_path / "empty.csv"
    _write(path, {"x": [], "y": []})
    assert path.read_text() == "x,y\n"


def test_quoting_of_awkward_strings(tmp_path):
    path = tmp_path / "q.csv"
    _write(path, {"name": ['with,comma', 'say "hi"']})
    header, rows = read_csv(path)
    assert rows == [['with,comma'], ['say "hi"']]
    assert b'"with,comma"' in path.read_bytes()


@pytest.mark.parametrize("special", [",", '"', "\n", "\r"])
def test_string_header_and_cell_with_special_character_quoted(tmp_path, special):
    path = tmp_path / "q.csv"
    text = f"a{special}b"
    _write(path, {text: [text], "v": [0.5]})
    quoted = '"' + text.replace('"', '""') + '"'
    assert path.read_bytes().decode() == f"{quoted},v\n{quoted},0.5\n"


def test_width_mismatch_rejected():
    # a short column must not truncate the table
    with pytest.raises(ValueError) as caught:
        tableio.csv_text({"a": [1, 2], "b": [1]})
    assert str(caught.value) == "column 'b' holds 1 values, the first column 2"


def test_nan_rejected_and_no_partial_file(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="non-finite"):
        _write(path, {"v": [float("nan")]})
    assert not path.exists()
    assert [p for p in os.listdir(tmp_path) if p.endswith(".part")] == []


def test_gain_file_nan_names_the_file(tmp_path):
    # the value here; the command prefixes the file (test_cli, shape --out-spectrum)
    path = tmp_path / "gains.txt"
    with pytest.raises(ValueError) as caught:
        _write(path, [0.5, float("nan")])
    assert str(caught.value) == "non-finite value nan in output table"
    assert list(tmp_path.iterdir()) == []


def test_outputs_take_the_umask(tmp_path):
    # the mode any new file would get, not the 0600 of a private temp file
    path = tmp_path / "data.csv"
    umask = os.umask(0o027)
    try:
        tableio.commit([(path, tableio.csv_text({"v": [1]})),
                        (tableio.manifest_path(path), tableio.manifest_text("acf-theory", {},
                                                                            None, 0.0))])
    finally:
        os.umask(umask)
    for written in (path, tableio.manifest_path(path)):
        assert stat.S_IMODE(os.stat(written).st_mode) == 0o640


def test_failed_write_names_only_the_destination(tmp_path, monkeypatch):
    # a directory made at the destination after the check: the rename fails
    target = tmp_path / "taken"
    replace = os.replace

    def taken_first(src, dst):
        os.mkdir(dst)
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", taken_first)
    with pytest.raises(IsADirectoryError) as caught:
        _write(target, {"v": [1]})
    assert str(caught.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{target}'"
    assert list(tmp_path.iterdir()) == [target]


def test_manifest_sidecar(tmp_path):
    path = tmp_path / "data.csv"
    tableio.commit([(path, tableio.csv_text({"v": [1]})),
                    (tableio.manifest_path(path), tableio.manifest_text("acf-theory", {"n": 8},
                                                                        seed=3, wall_time_s=0.25))])
    sidecar = tmp_path / "data.csv.manifest.json"
    assert str(sidecar) == tableio.manifest_path(path)
    payload = json.loads(sidecar.read_text())
    assert payload["command"] == "acf-theory"
    assert payload["parameters"] == {"n": 8}
    assert payload["seed"] == 3
    assert payload["wall_time_s"] == 0.25
    assert "version" in payload


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_round_trip_property(value):
    assert float(tableio.format_cell(value)) == value


def test_columns_are_typed_once(tmp_path):
    # a 1 beside floats stays 1; bool, None and strings keep their cell rules
    path = tmp_path / "typed.csv"
    rows = [[1, 0.5, True, None, "a,b", np.float64(0.25), 3],
            [2.5, -0.0, False, 1.5, "plain", np.float64(1e-300), 10**20]]
    header = ["mixed", "float", "bool", "none", "text", "numpy", "int"]
    _write(path, dict(zip(header, map(list, zip(*rows)))))
    assert path.read_text().splitlines() == [
        "mixed,float,bool,none,text,numpy,int",
        '1,0.5,true,,"a,b",0.25,3',
        "2.5,-0.0,false,1.5,plain,1e-300,100000000000000000000",
    ]


@pytest.mark.parametrize("column, bad", [([0.5, float("inf")], "inf"),
                                         ([np.float64(1.0), np.float64("-inf")], "-inf"),
                                         ([1, float("nan")], "nan")],
                         ids=["float", "numpy", "mixed"])
def test_non_finite_names_its_column(tmp_path, column, bad):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError) as caught:
        _write(path, {"ok": [0.0] * len(column), "b": column})
    assert str(caught.value) == f"column 'b': non-finite value {bad} in output table"
    assert list(tmp_path.iterdir()) == []


def test_blocks_of_rows_write_the_same_bytes(tmp_path, monkeypatch):
    # a column may be all floats in one block and mixed in the next
    table = {"int": list(range(10)), "float": [k / 3.0 for k in range(10)],
             "mixed": ["x" if k == 7 else k * 0.5 for k in range(10)],
             "flags": [None if k % 4 else True for k in range(10)]}
    _write(tmp_path / "whole.csv", table)
    monkeypatch.setattr(tableio, "_BLOCK_ROWS", 3)
    _write(tmp_path / "blocks.csv", table)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "whole.csv").read_text().splitlines()[8] == "7,2.3333333333333335,x,"
    bad = {name: column + [value] for (name, column), value
           in zip(table.items(), [10, float("nan"), 1.0, None])}
    with pytest.raises(ValueError, match="^" + re.escape("column 'float'")):
        tableio.csv_text(bad)


_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(),
                   st.booleans(), st.none(), st.text(alphabet='a,"\n\r 1.'))
_COLUMNS = [st.floats(allow_nan=False, allow_infinity=False), st.integers(), _CELLS]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.data())
def test_column_writer_writes_the_cell_rule(length, data):
    # float, int and mixed columns: whichever path a column takes, the table
    # must read as the cell rule and the RFC 4180 quoting write it row by row
    columns = [data.draw(st.lists(data.draw(st.sampled_from(_COLUMNS)), min_size=length,
                                  max_size=length)) for _ in range(3)]
    rows = [list(row) for row in zip(*columns)]

    def quoted(value):
        cell = tableio.format_cell(value)
        if isinstance(value, str) and any(ch in cell for ch in ',"\n\r'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    lines = ["a,b,c"] + [",".join(map(quoted, row)) for row in rows]
    assert tableio.csv_text(dict(zip("abc", columns))) == "\n".join(lines) + "\n"


def test_gain_file_takes_the_column_path(tmp_path):
    path = tmp_path / "gains.txt"
    _write(path, np.array([0.0, 0.5, 1.0 / 3.0]))
    assert path.read_text() == f"0.0\n0.5\n{1.0 / 3.0!r}\n"
    _write(path, [1, 0.5])
    assert path.read_text() == "1\n0.5\n"


def test_commit_writes_nothing_when_a_staged_write_fails(tmp_path, monkeypatch):
    # six files, the first already on disk; the third staged file cannot be written
    (tmp_path / "t0.csv").write_text("old\n")
    files = [(tmp_path / f"t{k}.csv", f"{k}\n") for k in range(6)]
    fdopen, opened = os.fdopen, []

    def full_on_third(fd, *args, **kwargs):
        opened.append(fd)
        if len(opened) == 3:
            os.close(fd)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return fdopen(fd, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", full_on_third)
    with pytest.raises(OSError) as caught:
        tableio.commit(files)
    assert str(caught.value) == (f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                                 f"'{tmp_path / 't2.csv'}'")
    assert [p.name for p in tmp_path.iterdir()] == ["t0.csv"]
    assert (tmp_path / "t0.csv").read_text() == "old\n"


def test_commit_checks_every_destination_before_it_writes(tmp_path):
    # the last destination is a directory: the first five are not written either
    (tmp_path / "t5.csv").mkdir()
    files = [(tmp_path / f"t{k}.csv", f"{k}\n") for k in range(6)]
    with pytest.raises(ValueError) as caught:
        tableio.commit(files)
    assert str(caught.value) == f"output {tmp_path / 't5.csv'} is a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["t5.csv"]
    nested = tmp_path / "new" / "dir" / "t.csv"
    tableio.commit([(nested, "1\n"), (tmp_path / "t0.csv", "0\n")])  # parents are made
    assert nested.read_text() == "1\n" and (tmp_path / "t0.csv").read_text() == "0\n"
