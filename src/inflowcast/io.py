"""CSV and JSON readers/writers for every file interface of the toolkit.

Readers give line-numbered diagnostics on malformed rows.  The ensemble,
telemetry and daily-series readers parse their columns with one
``np.loadtxt`` and scan row by row only to name the first bad line.  The
telemetry and daily-series readers share ``_read_series``.  Every date is
parsed by ``date.fromisoformat`` (``_to_date``) and every timestamp by
``datetime.fromisoformat`` (``_to_timestamp``), one field at a time.  The
JSON and string-table helpers (``read_json``, ``write_json``,
``read_table_csv``) live in ``textio``, which needs no numpy, and are
imported here with the header and row checks the readers share.

Writers write the bytes of the ``csv`` module's default dialect: ``,``
between fields, CRLF line ends and minimal quoting (a field holding a
comma, a quote or a line break is quoted).  Floats, numpy's too, are written
with ``repr``, so outputs are byte-stable and round-trip exactly.  Each
column is formatted in one pass, and a block of rows is written at a time.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import EnsemblePrecipForecast, NaoIndex
from .errors import InputError
from .series import DailySeries, InflowSeries
from .textio import _check_bytes, _converted, _header, _parse, _parse_finite, _require, _rows, read_json, read_table_csv, write_json

if TYPE_CHECKING:
    from .telemetry import CompensationSchedule, GridTable, StorageCurve, TelemetrySeries


_BLOCK_ROWS = 256  # rows a writer formats and writes at a time, so its memory stays flat
_QUOTED = (",", '"', "\r", "\n")  # characters that make the csv module quote a field


def _texts(values) -> list[str]:
    """The fields of one column as the csv module writes them after ``str``, with floats (numpy's too) by ``repr``.

    Float and datetime arrays are formatted in one pass each; other values one
    at a time.  A field holding a comma, a quote or a line break is quoted.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return list(map(repr, values.astype(float, copy=False).tolist()))
    if isinstance(values, np.ndarray) and values.dtype.kind == "M":
        return np.datetime_as_string(values).tolist()
    texts = [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in values]
    joined = "".join(texts)
    if any(c in joined for c in _QUOTED):
        texts = ['"' + t.replace('"', '""') + '"' if any(c in t for c in _QUOTED) else t for t in texts]
    return texts


def _csv_lines(columns, line: str | None = None) -> str:
    """Equal-length ``columns`` as CRLF-ended CSV lines; ``line`` is a ``str.format`` template for one row."""
    fields = [_texts(c) for c in columns]
    if len(fields) == 1:  # the csv module quotes a lone empty field, which would otherwise read as a blank line
        fields[0] = [t or '""' for t in fields[0]]
    template = line or ",".join(["{}"] * len(fields)) + "\r\n"
    return "".join(map(template.format, *fields))


def _column_lines(*columns, line: str | None = None):
    """The CSV text of equal-length ``columns``, ``_BLOCK_ROWS`` rows at a time."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield _csv_lines([c[start : start + _BLOCK_ROWS] for c in columns], line)


def _row_lines(rows):
    """The CSV text of ``rows`` of equal length, ``_BLOCK_ROWS`` rows at a time."""
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        yield _csv_lines(list(zip(*block, strict=True)))


def _write_csv(path, header, blocks) -> None:
    """Write ``header``, then each block of whole CSV lines: the bytes the csv module writes for the same fields."""
    with open(path, "w", newline="") as fh:
        # header fields as the csv module converts them: floats by repr, None as empty, the rest by str
        fh.write(_csv_lines([[float.__repr__(h) if isinstance(h, float) else "" if h is None else str(h)] for h in header]))
        fh.writelines(blocks)


def _first_bad_row(path: Path, problem) -> InputError | None:
    """The `file:line` error of the first body row ``problem`` finds fault with; it gets the rows of ``_rows``."""
    for lineno, row in _rows(path, ()):
        message = problem(row)
        if message:
            return InputError(f"{path}:{lineno}: {message}")
    return None


def _to_date(raw: str) -> np.datetime64:
    return np.datetime64(dt.date.fromisoformat(raw.strip()), "D")


def _to_timestamp(raw: str) -> np.datetime64:
    s = raw.strip()
    if s.endswith("Z"):
        s = s[:-1]
    t = dt.datetime.fromisoformat(s)
    offset = t.utcoffset()
    if offset is None:
        return np.datetime64(t, "s")
    # numpy warns on an aware datetime: shift its wall time to UTC instead (in numpy, which
    # also reaches the instants before year 1 that datetime.astimezone cannot)
    return np.datetime64(t.replace(tzinfo=None), "s") - np.timedelta64(offset // dt.timedelta(seconds=1), "s")


# ---------------------------------------------------------------------------
# telemetry and curves
# ---------------------------------------------------------------------------


def _read_series(path, key: str, to_key, unit: str, values: tuple[str, ...], finite: bool, not_after: str):
    """Columns ``key`` (``unit`` dates from ``to_key``, strictly increasing) and ``values`` (floats) of a CSV, by header name, as arrays.

    One ``np.loadtxt`` reads them into a structured array (the last of a
    repeated name wins, as in csv.DictReader), with ``to_key`` as the key
    column's converter.  The order and, if ``finite``, the finiteness are
    checked on whole columns.  A file that fails to parse or a check is
    scanned row by row only to name the first bad line, by the rules in row
    order: the key, its order against the previous row (``not_after`` is the
    message), then each value.
    """
    path = Path(path)
    header, skip = _header(path, (key, *values))
    where = {name: i for i, name in enumerate(header)}
    cols = [where[c] for c in (key, *values)]
    dtype = [(key, unit)] + [(c, float) for c in values]
    converters = {i: float for i in cols} | {cols[0]: to_key}
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, dtype, comments=None, delimiter=",", quotechar='"', skiprows=skip, usecols=cols, converters=converters, ndmin=1)
        keys = rows[key]
        if np.any(keys[1:] <= keys[:-1]) or finite and not all(np.isfinite(rows[c]).all() for c in values):
            raise ValueError("a value out of order or range")
    except ValueError as exc:
        previous = []

        def problem(row):
            k, message = _converted(row, key, to_key)
            if message or (previous and k <= previous[0]):
                return message or not_after.format(k, previous[0])
            previous[:] = [k]
            for c in values:
                v, message = _converted(row, c, float)
                if message or (finite and not math.isfinite(v)):
                    return message or f"non-finite value {row[c]!r} in column {c!r}"
            return None

        raise _first_bad_row(path, problem) or InputError(f"{path}: {exc}") from None
    return [np.ascontiguousarray(keys), *(np.ascontiguousarray(rows[c]) for c in values)]


def read_telemetry_csv(path) -> TelemetrySeries:
    """`timestamp,water_level_m,power_w` with ISO-8601 UTC timestamps."""
    from .telemetry import TelemetrySeries

    not_after = "telemetry timestamps must be strictly increasing: {} is not after {}"
    columns = ("water_level_m", "power_w")
    ts, level, power = _read_series(path, "timestamp", _to_timestamp, "datetime64[s]", columns, False, not_after)
    if not len(ts):
        raise InputError(f"{path}: no telemetry rows")
    return TelemetrySeries(ts, level, power)


def write_telemetry_csv(path, telemetry: TelemetrySeries) -> None:
    lines = _column_lines(telemetry.timestamps, telemetry.water_level, telemetry.power, line="{}Z,{},{}\r\n")
    _write_csv(path, ["timestamp", "water_level_m", "power_w"], lines)


def _construct(path, cls, *arrays):
    """``cls(*arrays)``, with its structural errors (too few points, say) prefixed by ``path``."""
    try:
        return cls(*arrays)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_grid_table_csv(path) -> GridTable:
    """Rectangular grid: header `power_w,<level>,...`, one row per power value; both axes strictly increasing."""
    from .telemetry import GridTable

    path = _require(Path(path))
    _check_bytes(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty grid file") from None
        try:
            levels = [float(c) for c in header[1:]]
        except ValueError:
            raise InputError(f"{path}:1: level axis header must be numeric") from None
        if not all(map(math.isfinite, levels)):
            raise InputError(f"{path}:1: non-finite level in the level axis header")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise InputError(f"{path}:1: grid axes must be strictly increasing (level axis header)")
        powers, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                powers.append(float(row[0]))
                values.append([float(c) for c in row[1:]])
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric grid entry") from None
            if not all(map(math.isfinite, [powers[-1], *values[-1]])):
                raise InputError(f"{path}:{lineno}: non-finite grid entry")
            if len(values[-1]) != len(levels):
                raise InputError(f"{path}:{lineno}: expected {len(levels)} grid columns")
            if len(powers) > 1 and powers[-1] <= powers[-2]:
                raise InputError(f"{path}:{lineno}: grid axes must be strictly increasing (power {row[0]!r})")
    return _construct(path, GridTable, np.array(powers), np.array(levels), np.array(values))


def write_grid_table_csv(path, table: GridTable) -> None:
    _write_csv(path, ["power_w", *_texts(table.level_axis)], _column_lines(table.power_axis, *table.values.T))


def read_storage_csv(path) -> StorageCurve:
    """`level_m,volume_m3`, finite and strictly increasing, at least 2 rows."""
    from .telemetry import StorageCurve

    levels, volumes = [], []
    for lineno, row in _rows(Path(path), ("level_m", "volume_m3")):
        levels.append(_parse_finite(path, lineno, row, "level_m"))
        volumes.append(_parse_finite(path, lineno, row, "volume_m3"))
        if len(levels) > 1 and not (levels[-1] > levels[-2] and volumes[-1] > volumes[-2]):
            raise InputError(f"{path}:{lineno}: storage curve must be strictly increasing")
    return _construct(path, StorageCurve, np.array(levels), np.array(volumes))


def write_storage_csv(path, curve: StorageCurve) -> None:
    _write_csv(path, ["level_m", "volume_m3"], _column_lines(curve.level_axis, curve.volume))


def read_compensation_csv(path) -> CompensationSchedule:
    """`start_date,end_date,flow_m3s`, non-overlapping date ranges, finite flows."""
    from .telemetry import CompensationSchedule

    starts, ends, rates = [], [], []
    for lineno, row in _rows(Path(path), ("start_date", "end_date", "flow_m3s")):
        starts.append(_parse(path, lineno, row, "start_date", _to_date))
        ends.append(_parse(path, lineno, row, "end_date", _to_date))
        rates.append(_parse_finite(path, lineno, row, "flow_m3s"))
    if not starts:
        raise InputError(f"{path}: no compensation rows")
    return _construct(path, CompensationSchedule, np.array(starts), np.array(ends), rates)


def write_compensation_csv(path, schedule: CompensationSchedule) -> None:
    lines = _column_lines(schedule.starts, schedule.ends, schedule.rates)
    _write_csv(path, ["start_date", "end_date", "flow_m3s"], lines)


# ---------------------------------------------------------------------------
# daily series
# ---------------------------------------------------------------------------


def read_daily_series_csv(path, value_column: str) -> DailySeries:
    """`date,<value_column>`; dates must increase, values must be finite (they may be negative)."""
    dates, values = _read_series(path, "date", _to_date, "datetime64[D]", (value_column,), True, "date {} is not after {}")
    if not len(dates):
        raise InputError(f"{path}: no rows")
    return DailySeries(dates, values)


def read_inflow_csv(path) -> DailySeries:
    """`date,inflow_norm`: the normalised daily inflow that `reconstruct-inflow` and `synth` write."""
    return read_daily_series_csv(path, "inflow_norm")


def write_inflow_csv(path, series: InflowSeries, sidecar=None, cleaning_report: dict | None = None) -> None:
    """Write `date,inflow_norm`, and at ``sidecar`` a JSON record of the normalisation constant and cleaning report."""
    _write_csv(path, ["date", "inflow_norm"], _column_lines(series.dates, series.values))
    if sidecar is not None:
        meta = {"normalization_constant": series.normalization_constant, "n_values": int(len(series))}
        if cleaning_report is not None:
            meta["cleaning_report"] = cleaning_report
        write_json(sidecar, meta)


def read_reanalysis_csv(path) -> DailySeries:
    """`date,precip_mm_day`."""
    series = read_daily_series_csv(path, "precip_mm_day")
    if np.any(series.values < 0):
        c = "precip_mm_day"
        raise _first_bad_row(Path(path), lambda row: float(row[c]) < 0 and f"negative precipitation rate {row[c]!r}")
    return series


def write_reanalysis_csv(path, series: DailySeries) -> None:
    _write_csv(path, ["date", "precip_mm_day"], _column_lines(series.dates, series.values))


def read_nao_csv(path) -> NaoIndex:
    """`year,month,index`; one finite index per month."""
    entries, lines = {}, {}
    for lineno, row in _rows(Path(path), ("year", "month", "index")):
        y = _parse(path, lineno, row, "year", int)
        m = _parse(path, lineno, row, "month", int)
        if not 1 <= m <= 12:
            raise InputError(f"{path}:{lineno}: month {m} out of range")
        if (y, m) in lines:
            raise InputError(f"{path}:{lineno}: month {y}-{m:02d} repeats line {lines[(y, m)]}")
        entries[(y, m)] = _parse_finite(path, lineno, row, "index")
        lines[(y, m)] = lineno
    return NaoIndex(entries)


def write_nao_csv(path, nao: NaoIndex) -> None:
    _write_csv(path, ["year", "month", "index"], _row_lines((y, m, value) for (y, m), value in nao.items()))


# ---------------------------------------------------------------------------
# ensemble forecasts
# ---------------------------------------------------------------------------


_ENSEMBLE_SCHEMAS = {
    "daily": ("issue_date", "member", "lead_day", "precip_mm_day"),
    "split": ("issue_date", "member", "lead_day", "largescale_mm_day", "convective_mm_day"),
    "six_hourly": ("issue_date", "member", "lead_step_hours", "precip_mm"),
}
# numpy's parser cuts a string at NUL and reads the ASCII separators as blanks
_NUMPY_BLANKS = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_ISSUE_DATE_BYTES = 16  # width an issue_date is read at; a field that fills it may have been cut


def _to_issue_date(raw: str) -> np.datetime64:
    if len(raw.encode()) >= _ISSUE_DATE_BYTES:
        raise ValueError(raw)
    return _to_date(raw)


_ENSEMBLE_CONVERTERS = {"issue_date": _to_issue_date, "member": int, "lead_day": int, "lead_step_hours": int}


def _ensemble_row_problem(fields: dict, mode: str) -> str | None:
    """What is wrong with one ensemble row, checked in column order, or None."""
    columns = _ENSEMBLE_SCHEMAS[mode]
    values = {}
    for c in columns:
        raw = fields.get(c)
        try:
            if c != "issue_date" and not (raw.isascii() and "_" not in raw):  # numbers as numpy reads them
                raise ValueError(raw)
            values[c] = _ENSEMBLE_CONVERTERS.get(c, float)(raw)
            if isinstance(values[c], int) and not -(2**63) <= values[c] < 2**63:
                raise ValueError(raw)
        except (TypeError, ValueError, AttributeError):
            return f"bad value {raw!r} in column {c!r}"
        if c == "lead_step_hours" and (values[c] <= 0 or values[c] % 6):
            return "lead_step_hours must be a positive multiple of 6"
    if values.get("lead_day", 1) <= 0:
        return "lead day must be positive"
    for c in columns[3:]:
        if not (math.isfinite(values[c]) and values[c] >= 0):
            return f"precipitation must be finite and non-negative, got {fields[c]!r} in column {c!r}"
    return None


def _ensemble_columns(path: Path, header: list[str], skip: int, mode: str):
    """Columns (issue day number, member, lead day, amount) of every body row, or a ValueError.

    One ``np.loadtxt`` reads the schema's columns by header name (the last one
    wins, as in csv.DictReader); each distinct issue_date is parsed once.
    """
    columns = _ENSEMBLE_SCHEMAS[mode]
    where = {name: i for i, name in enumerate(header)}
    kinds = {"issue_date": f"S{_ISSUE_DATE_BYTES}", "member": np.int64, columns[2]: np.int64}
    dtype = [(c, kinds.get(c, float)) for c in columns]
    # A file object keeps numpy from decompressing by file name; latin-1 hands it the
    # undecoded bytes, since its integer parser takes some characters above U+00FF for digits.
    with open(path, encoding="latin-1") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        cols = [where[c] for c in columns]
        rows = np.loadtxt(fh, dtype, comments=None, delimiter=",", quotechar='"', skiprows=skip, usecols=cols, ndmin=1)
    dates, issue_idx = np.unique(rows["issue_date"], return_inverse=True)
    day_of = np.array([_to_issue_date(d.decode()) for d in dates.tolist()], dtype="datetime64[D]").astype(np.int64)
    lead = rows[columns[2]]
    values = [rows[c] for c in columns[3:]]
    flagged = (lead <= 0) | (lead % 6 != 0) if mode == "six_hourly" else lead <= 0
    for v in values:
        flagged |= ~np.isfinite(v) | (v < 0)
    if flagged.any():
        raise ValueError("a value out of range")
    day = (lead + 23) // 24 if mode == "six_hourly" else lead
    return day_of[issue_idx], rows["member"], day, values[0] + values[1] if mode == "split" else values[0]


def read_ensemble_csv(path, min_lead_days: int = 42) -> list[EnsemblePrecipForecast]:
    """Long-form ensemble file, daily or 6-hourly.

    Daily rows: `issue_date,member,lead_day,precip_mm_day`.  Six-hourly rows
    (`issue_date,member,lead_step_hours,precip_mm`) are summed into daily
    totals, i.e. mm/day rates, in row order.  When total precipitation is
    split into `largescale_mm_day` and `convective_mm_day` columns the two
    are summed.  Rows may come in any order; every issue must have the same
    members and each member at least ``min_lead_days`` complete lead days
    (the issue is cut to the shortest member).

    The body is parsed column by column in one pass; a file that fails to
    parse or a check is scanned row by row only to name the first bad line.
    """
    path = Path(path)
    header, skip = _header(path, forbidden=_NUMPY_BLANKS)  # also in the columns that are not read
    cols = set(header)
    for mode, required in _ENSEMBLE_SCHEMAS.items():
        if set(required) <= cols:
            break
    else:
        raise InputError(f"{path}: unrecognised ensemble schema (header: {sorted(cols)})")
    try:
        issue, member, day, amount = _ensemble_columns(path, header, skip, mode)
    except ValueError as exc:
        bad_row = _first_bad_row(path, lambda fields: _ensemble_row_problem(fields, mode))
        raise bad_row or InputError(f"{path}: {exc}") from None
    if not len(issue):
        raise InputError(f"{path}: no forecast rows")

    issues, issue_idx = np.unique(issue, return_inverse=True)
    issues = issues.astype("datetime64[D]")
    members, member_idx = np.unique(member, return_inverse=True)
    n_issues, n_members = len(issues), len(members)
    pair = issue_idx * n_members + member_idx
    present = np.zeros((n_issues, n_members), dtype=bool)
    present.flat[pair] = True
    member_sets, set_counts = np.unique(present, axis=0, return_counts=True)
    if len(member_sets) > 1:
        usual = member_sets[np.argmax(set_counts)]
        i = int(np.argmax((present != usual).any(axis=1)))
        raise InputError(
            f"{path}: issue {issues[i]} has {int(present[i].sum())} members {members[present[i]].tolist()} "
            f"but {set_counts.max()} of the {n_issues} issues have {int(usual.sum())} {members[usual].tolist()}; "
            "every issue needs the same members"
        )

    # an issue is cut to its shortest member, and every lead day up to there
    # needs all its steps; no pair has more complete days than rows / steps,
    # which bounds the grid however large a lead day is
    steps_per_day = 4 if mode == "six_hourly" else 1
    last_day = np.zeros(n_issues * n_members, dtype=np.int64)
    np.maximum.at(last_day, pair, day)
    n_days = last_day.reshape(n_issues, n_members).min(axis=1)
    short = n_days < min_lead_days
    if short.any():
        i = int(np.argmax(short))
        raise InputError(f"{path}: issue {issues[i]} has only {n_days[i]} lead days (need >= {min_lead_days})")
    width = int(min(n_days.max(), np.bincount(pair).max() // steps_per_day + 1))
    keep = day <= np.minimum(n_days, width)[issue_idx]
    cell = (pair * width + day - 1)[keep]
    counts = np.bincount(cell, minlength=n_issues * n_members * width).reshape(n_issues, n_members, width)
    incomplete = (counts != steps_per_day) & (np.arange(1, width + 1) <= n_days[:, None, None])
    if incomplete.any():
        i, m, d = np.unravel_index(np.argmax(incomplete), incomplete.shape)
        raise InputError(f"{path}: issue {issues[i]} member {members[m]} has incomplete data for lead day {d + 1}")

    totals = np.zeros(n_issues * n_members * width)
    np.add.at(totals, cell, amount[keep])
    totals = totals.reshape(n_issues, n_members, width)
    return [
        EnsemblePrecipForecast(issue_date, totals[i, :, :n])
        for i, (issue_date, n) in enumerate(zip(issues.tolist(), n_days.tolist()))
    ]


def write_ensemble_csv(path, forecasts) -> None:
    _write_csv(path, ["issue_date", "member", "lead_day", "precip_mm_day"], map(_ensemble_lines, forecasts))


def _ensemble_lines(forecast: EnsemblePrecipForecast) -> str:
    """One issue's long-form rows, member by member and day by day."""
    head = _texts([forecast.issue_date])[0]
    days = [f",{d}," for d in range(1, forecast.members.shape[1] + 1)]
    return "".join([f"{head},{k}{d}{v!r}\r\n" for k, member in enumerate(forecast.members.tolist()) for d, v in zip(days, member)])


# ---------------------------------------------------------------------------
# tabular outputs
# ---------------------------------------------------------------------------


def write_table_csv(path, header, rows) -> None:
    """Generic deterministic CSV writer: ``rows`` of the header's length, floats via repr."""
    _write_csv(path, header, _row_lines(rows))
