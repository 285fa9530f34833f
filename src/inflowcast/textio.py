"""File helpers that need only the standard library: JSON, and CSV headers and rows with `file:line` diagnostics.

``report`` reads and writes only through these, so it starts without numpy;
``io`` builds its numeric readers on the same header and row checks.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
from pathlib import Path

from .errors import InputError

_BLOCK_BYTES = 1 << 20  # bytes ``_check_bytes`` reads at a time
# The largest magnitude a reader accepts where it needs a finite number: far above any
# physical value, and low enough that the sums and squares of such values stay finite.
MAX_MAGNITUDE = 1e100


def _require(path: Path) -> Path:
    path = Path(path)
    if not path.exists():
        raise InputError(f"required input file is missing: {path}")
    return path


def _line_at(path: Path, offset: int) -> int:
    """The line of the byte at ``offset`` of ``path`` as ``bytes.splitlines`` counts lines (CR, LF, CRLF), read ``_BLOCK_BYTES`` at a time."""
    line, tail = 1, b""
    with open(path, "rb") as fh:
        while offset > 0 and (block := fh.read(min(_BLOCK_BYTES, offset))):
            # the LF of a CRLF cut by the block end was counted with its CR
            line += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n") - (tail == b"\r" and block[:1] == b"\n")
            tail, offset = block[-1:], offset - len(block)
    return line


def _check_bytes(path: Path, forbidden: tuple[bytes, ...] = ()) -> None:
    """Raise an InputError naming the line of the first byte of ``path`` that is not UTF-8 or is ``forbidden``.

    The file is read ``_BLOCK_BYTES`` at a time through an incremental UTF-8
    decoder, and its lines are counted only to name a bad byte.  A byte that
    is not UTF-8 is named even when a ``forbidden`` one (each a single byte)
    comes earlier.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    start, found = 0, None  # the offset of the block in the file; the first forbidden byte and its offset
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_BLOCK_BYTES)
            pending = decoder.getstate()[0]  # the start of a character that the last block cut
            try:
                if pending or not block.isascii():
                    decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                byte = (pending + block)[exc.start : exc.start + 1]
                raise InputError(f"{path}:{_line_at(path, start - len(pending) + exc.start)}: byte {byte!r} is not valid UTF-8") from None
            if not block:
                break
            at = min((i for i in map(block.find, forbidden) if i >= 0), default=-1)
            if found is None and at >= 0:
                found = start + at, block[at : at + 1]
            start += len(block)
    if found:
        raise InputError(f"{path}:{_line_at(path, found[0])}: byte {found[1]!r} is not allowed")


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
    if abs(value) > MAX_MAGNITUDE:
        raise InputError(f"{path}:{lineno}: value {row[column]!r} in column {column!r} is beyond the largest magnitude accepted, {MAX_MAGNITUDE:g}")
    return value


def read_table_csv(path, columns, finite=()):
    """Read selected columns back as dicts of raw strings.

    The ``finite`` columns are parsed as finite floats of magnitude at most
    ``MAX_MAGNITUDE``, failing as `file:line`.
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
