"""CSV and manifest text with strict formatting rules, and the one commit that writes them.

Data files are plain RFC-4180 CSV with LF endings and shortest
round-trip float formatting (csv_text).  Every table gets a JSON sidecar
manifest carrying the resolved parameters, seed, package version, and
wall time (manifest_text).  NaN or infinite values in a table are
treated as upstream bugs and rejected; a deliberately empty cell is
spelled None.  commit is the only writer: it checks every destination,
stages every file and renames them only when all are staged, so a
failure leaves no partial file.  Text inputs (gain, basis and alphabet
files) are read through load_text.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings

import numpy as np

from . import __version__

__all__ = [
    "load_text",
    "format_cell",
    "csv_text",
    "manifest_path",
    "manifest_text",
    "commit",
]

# characters that force a cell into quotes (RFC 4180)
_SPECIAL = (',', '"', '\n', '\r')
# rows formatted at once; memory only, not output
_BLOCK_ROWS = 256


def load_text(path, ndmin: int, max_rows: int) -> np.ndarray:
    """np.loadtxt of at most max_rows rows, refusing a file with no values.

    numpy's warnings on empty input and on blank or comment lines are
    silenced and a parse error names the file: one error line per bad file.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            data = np.loadtxt(path, ndmin=ndmin, max_rows=max_rows)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"{path} holds no values")
    return data


def format_cell(value) -> str:
    """One CSV cell: shortest round-trip for floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    x = float(value)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} in output table")
    return repr(x)


def _quoted(value) -> str:
    """format_cell, quoted (RFC 4180) where a string holds a separator, quote or break."""
    cell = format_cell(value)
    if isinstance(value, str) and any(ch in cell for ch in _SPECIAL):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column_cells(column) -> list[str]:
    """One column's cells, typed once: only floats, or only ints, at once, else cell by cell.

    Floats are checked once for non-finite values and written by repr, ints
    (not bool) by str; mixed, bool, None and string columns keep _quoted,
    so a 1 beside floats still reads 1.
    """
    kinds = set(map(type, column))
    if kinds and all(issubclass(kind, float) for kind in kinds):
        values = np.asarray(column, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            x = values[np.argmin(finite)].item()
            raise ValueError(f"non-finite value {x!r} in output table")
        return list(map(repr, values.tolist()))
    if kinds <= {int}:
        return list(map(str, column))
    return list(map(_quoted, column))


def csv_text(table) -> str:
    """A dict of equal-length columns as CSV text under its header.

    Any other sequence is written one value per line (the loadable
    gain-file format).  Columns are sliced into blocks of _BLOCK_ROWS rows
    and each block is typed by _column_cells; a short column or a
    non-finite value raises ValueError naming the column.
    """
    if not isinstance(table, dict):
        return "\n".join(_column_cells(table)) + "\n"
    rows = len(next(iter(table.values()), ()))
    for name, column in table.items():
        if len(column) != rows:
            raise ValueError(f"column {name!r} holds {len(column)} values, the first column {rows}")
    lines = [",".join(map(_quoted, table))]
    for start in range(0, rows, _BLOCK_ROWS):
        cells = []
        for name, column in table.items():
            try:
                cells.append(_column_cells(column[start:start + _BLOCK_ROWS]))
            except ValueError as exc:
                raise ValueError(f"column {name!r}: {exc}") from None
        lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def manifest_path(path) -> str:
    return str(path) + ".manifest.json"


def manifest_text(command: str, parameters: dict, seed, wall_time_s: float) -> str:
    """The JSON sidecar of a data file; keys sorted for stable diffs."""
    payload = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "parameters": parameters,
        "wall_time_s": round(float(wall_time_s), 6),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def commit(files) -> None:
    """Write (path, text) pairs all or none: check every destination, stage, then rename in order.

    First, a destination that is a directory, or whose parent is not one
    and cannot be made, raises ValueError.  Then each text goes to a new
    file beside its path, its parents made first, and only when every one
    is written are they renamed onto their paths, in the order given.  A
    failure before the first rename removes every staged file and every
    directory the commit made, deepest first and only if empty, so nothing
    is written; an OSError names the destination, not the staged file.
    Files get the mode of any new file, 0666 less the umask.
    """
    files = [(os.fspath(path), text) for path, text in files]
    made = set()  # the missing ancestors of the destinations, which staging makes
    for path, _ in files:
        if os.path.isdir(path):
            raise ValueError(f"output {path} is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        while not os.path.exists(parent):
            made.add(parent)
            parent = os.path.dirname(parent)
        if not os.path.isdir(parent):
            raise ValueError(f"output {path}: {parent} is not a directory")
    staged = []  # (staged file, destination), in the order given
    try:
        for path, text in files:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            staged.append((tmp, path))
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for directory in sorted(made, key=len, reverse=True):  # a child before its parent
            with contextlib.suppress(OSError):  # not made, or not empty
                os.rmdir(directory)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
