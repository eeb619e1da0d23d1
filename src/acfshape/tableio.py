"""CSV and manifest emission with strict formatting rules.

Data files are plain RFC-4180 CSV with LF endings and shortest
round-trip float formatting, written atomically so a crashed run never
leaves a half-written table.  Every table gets a JSON sidecar manifest
carrying the resolved parameters, seed, package version, and wall time.
NaN or infinite values in a table are treated as upstream bugs and
rejected; a deliberately empty cell is spelled None.  Text inputs (gain,
basis and alphabet files) are read through load_text.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np

from . import __version__

__all__ = [
    "load_text",
    "format_cell",
    "emit_csv",
    "emit_text",
    "manifest_path",
    "write_manifest",
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


def _atomic_write(path: str, text: str) -> None:
    """Write a new file beside path, then rename it onto path.

    The file gets the mode of any new file, 0666 less the umask, and a
    failure names path, not the file beside it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


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


def emit_csv(path, header: list[str], rows) -> None:
    """Write a rectangular table by column (_column_cells), in blocks of _BLOCK_ROWS rows."""
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"{path}: row of width {len(row)} against header of width {width}")
    lines = [",".join(map(_quoted, header))]
    for start in range(0, len(rows), _BLOCK_ROWS):
        cells = []
        for name, column in zip(header, zip(*rows[start:start + _BLOCK_ROWS])):
            try:
                cells.append(_column_cells(column))
            except ValueError as exc:
                raise ValueError(f"{path}: column {name!r}: {exc}") from None
        lines.extend(map(",".join, zip(*cells)))
    _atomic_write(str(path), "\n".join(lines) + "\n")


def emit_text(path, values) -> None:
    """Write scalar values one per line (the loadable gain-file format)."""
    try:
        lines = _column_cells(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    _atomic_write(str(path), "\n".join(lines) + "\n")


def manifest_path(path) -> str:
    return str(path) + ".manifest.json"


def write_manifest(path, command: str, parameters: dict, seed, wall_time_s: float) -> None:
    """JSON sidecar next to a data file; keys sorted for stable diffs."""
    payload = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "parameters": parameters,
        "wall_time_s": round(float(wall_time_s), 6),
    }
    _atomic_write(manifest_path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")
