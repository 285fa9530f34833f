"""File helpers that need only the standard library: JSON, and CSV headers and rows with `file:line` diagnostics.

``report`` reads and writes only through these, so it starts without numpy;
``io`` builds its numeric readers on the same header and row checks.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .errors import InputError


def _require(path: Path) -> Path:
    path = Path(path)
    if not path.exists():
        raise InputError(f"required input file is missing: {path}")
    return path


def _check_bytes(path: Path, forbidden: tuple[bytes, ...] = ()) -> None:
    """Raise an InputError naming the line of the first byte of ``path`` that is not UTF-8 or is ``forbidden``."""
    data = Path(path).read_bytes()
    try:
        if not data.isascii():
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at, problem = exc.start, "is not valid UTF-8"
    else:
        at, problem = min((i for i in map(data.find, forbidden) if i >= 0), default=-1), "is not allowed"
    if at >= 0:
        line = len((data[:at] + b"x").splitlines())  # b"x": a line break just before the byte starts its line
        raise InputError(f"{path}:{line}: byte {data[at : at + 1]!r} {problem}")


def _header(path: Path, required: tuple[str, ...] = (), forbidden: tuple[bytes, ...] = ()) -> tuple[list[str], int]:
    """The header row of a CSV, which must name every ``required`` column, and the number of lines it takes.

    The file must exist and be UTF-8 without a ``forbidden`` byte.
    """
    path = _require(path)
    _check_bytes(path, forbidden)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
    missing = [c for c in required if c not in header]
    if missing:
        raise InputError(f"{path}: missing required columns {missing} (header: {header})")
    return header, reader.line_num


def _rows(path: Path, required: tuple[str, ...]):
    """Yield (line number, dict) rows of a CSV; validates the header up front."""
    _header(path, required)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            yield reader.line_num, row


def _converted(row: dict, column: str, conv):
    """``(conv(field), None)`` for the row's ``column``, or ``(None, message)`` naming its bad value."""
    raw = row.get(column)
    try:
        return conv(raw), None
    except (TypeError, ValueError, AttributeError):  # a short row has None, which has no .strip()
        return None, f"bad value {raw!r} in column {column!r}"


def _parse(path: Path, lineno: int, row: dict, column: str, conv):
    value, message = _converted(row, column, conv)
    if message:
        raise InputError(f"{path}:{lineno}: {message}")
    return value


def _parse_finite(path: Path, lineno: int, row: dict, column: str) -> float:
    value = _parse(path, lineno, row, column, float)
    if not math.isfinite(value):
        raise InputError(f"{path}:{lineno}: non-finite value {row[column]!r} in column {column!r}")
    return value


def read_table_csv(path, columns, finite=()):
    """Read selected columns back as dicts of raw strings.

    The ``finite`` columns are parsed as finite floats, failing as `file:line`.
    """
    out = []
    for lineno, row in _rows(Path(path), tuple(columns)):
        out.append({c: _parse_finite(path, lineno, row, c) if c in finite else row[c] for c in columns})
    return out


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    try:
        with open(_require(Path(path))) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise InputError(f"{path}: not valid JSON: {exc}") from None
