"""CSV and JSON readers/writers for every file interface of the toolkit.

Readers give line-numbered diagnostics on malformed rows; writers format
floats with ``repr`` so outputs are byte-stable and round-trip exactly.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .data import EnsemblePrecipForecast
from .errors import InputError
from .series import DailySeries, InflowSeries
from .telemetry import (
    CompensationSchedule,
    GridTable,
    StorageCurve,
    TelemetrySeries,
)
from .verification import NaoIndex


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _require(path: Path) -> Path:
    path = Path(path)
    if not path.exists():
        raise InputError(f"required input file is missing: {path}")
    return path


def _rows(path: Path, required: tuple[str, ...]):
    """Yield (line number, dict) rows of a CSV; validates the header up front."""
    path = _require(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise InputError(f"{path}: missing required columns {missing} (header: {header})")
        for row in reader:
            yield reader.line_num, row


def _parse(path: Path, lineno: int, row: dict, column: str, conv):
    raw = row.get(column)
    try:
        return conv(raw)
    except (TypeError, ValueError):
        raise InputError(f"{path}:{lineno}: bad value {raw!r} in column {column!r}") from None


def _parse_finite(path: Path, lineno: int, row: dict, column: str) -> float:
    value = _parse(path, lineno, row, column, float)
    if not math.isfinite(value):
        raise InputError(f"{path}:{lineno}: non-finite value {row[column]!r} in column {column!r}")
    return value


def _to_date(raw: str) -> np.datetime64:
    return np.datetime64(dt.date.fromisoformat(raw.strip()), "D")


def _to_timestamp(raw: str) -> np.datetime64:
    s = raw.strip()
    if s.endswith("Z"):
        s = s[:-1]
    return np.datetime64(dt.datetime.fromisoformat(s), "s")


# ---------------------------------------------------------------------------
# telemetry and curves
# ---------------------------------------------------------------------------


def read_telemetry_csv(path) -> TelemetrySeries:
    """`timestamp,water_level_m,power_w` with ISO-8601 UTC timestamps."""
    ts, level, power = [], [], []
    for lineno, row in _rows(Path(path), ("timestamp", "water_level_m", "power_w")):
        ts.append(_parse(path, lineno, row, "timestamp", _to_timestamp))
        level.append(_parse(path, lineno, row, "water_level_m", float))
        power.append(_parse(path, lineno, row, "power_w", float))
    if not ts:
        raise InputError(f"{path}: no telemetry rows")
    return TelemetrySeries(np.array(ts, dtype="datetime64[s]"), level, power)


def write_telemetry_csv(path, telemetry: TelemetrySeries) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "water_level_m", "power_w"])
        for t, l, p in zip(telemetry.timestamps, telemetry.water_level, telemetry.power):
            w.writerow([f"{t}Z", _fmt(l), _fmt(p)])


def read_grid_table_csv(path) -> GridTable:
    """Rectangular grid: header `power_w,<level>,...`, one row per power value."""
    path = _require(Path(path))
    with open(path, newline="") as fh:
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
    return GridTable(np.array(powers), np.array(levels), np.array(values))


def write_grid_table_csv(path, table: GridTable) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["power_w"] + [_fmt(l) for l in table.level_axis])
        for p, row in zip(table.power_axis, table.values):
            w.writerow([_fmt(p)] + [_fmt(v) for v in row])


def read_storage_csv(path) -> StorageCurve:
    """`level_m,volume_m3`, finite and strictly increasing."""
    levels, volumes = [], []
    for lineno, row in _rows(Path(path), ("level_m", "volume_m3")):
        levels.append(_parse_finite(path, lineno, row, "level_m"))
        volumes.append(_parse_finite(path, lineno, row, "volume_m3"))
    return StorageCurve(np.array(levels), np.array(volumes))


def write_storage_csv(path, curve: StorageCurve) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level_m", "volume_m3"])
        for l, v in zip(curve.level_axis, curve.volume):
            w.writerow([_fmt(l), _fmt(v)])


def read_compensation_csv(path) -> CompensationSchedule:
    """`start_date,end_date,flow_m3s`, non-overlapping date ranges, finite flows."""
    starts, ends, rates = [], [], []
    for lineno, row in _rows(Path(path), ("start_date", "end_date", "flow_m3s")):
        starts.append(_parse(path, lineno, row, "start_date", _to_date))
        ends.append(_parse(path, lineno, row, "end_date", _to_date))
        rates.append(_parse_finite(path, lineno, row, "flow_m3s"))
    if not starts:
        raise InputError(f"{path}: no compensation rows")
    return CompensationSchedule(np.array(starts), np.array(ends), rates)


def write_compensation_csv(path, schedule: CompensationSchedule) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["start_date", "end_date", "flow_m3s"])
        for s, e, r in zip(schedule.starts, schedule.ends, schedule.rates):
            w.writerow([str(s), str(e), _fmt(r)])


# ---------------------------------------------------------------------------
# daily series
# ---------------------------------------------------------------------------


def read_daily_series_csv(path, value_column: str, date_column: str = "date") -> DailySeries:
    """`<date_column>,<value_column>`; dates must increase, values must be finite (they may be negative)."""
    dates, values = [], []
    for lineno, row in _rows(Path(path), (date_column, value_column)):
        dates.append(_parse(path, lineno, row, date_column, _to_date))
        if len(dates) > 1 and dates[-1] <= dates[-2]:
            raise InputError(f"{path}:{lineno}: date {dates[-1]} is not after {dates[-2]}")
        values.append(_parse_finite(path, lineno, row, value_column))
    if not dates:
        raise InputError(f"{path}: no rows")
    return DailySeries(np.array(dates, dtype="datetime64[D]"), values)


def read_inflow_csv(path, sidecar=None) -> InflowSeries:
    """`date,inflow_norm`; the JSON sidecar restores the normalisation constant.

    The sidecar, if present, is a JSON object whose `normalization_constant`
    is a finite positive number and whose `window` is `daily` or `weekly`.
    """
    base = read_daily_series_csv(path, "inflow_norm")
    if sidecar is None or not Path(sidecar).exists():
        return InflowSeries(base.dates, base.values)
    meta = read_json(sidecar)
    if not isinstance(meta, dict):
        raise InputError(f"{sidecar}: expected a JSON object, got {type(meta).__name__}")
    raw = meta.get("normalization_constant", 1.0)
    try:
        norm = float(raw)
    except (TypeError, ValueError):
        raise InputError(f"{sidecar}: normalization_constant: not a number: {raw!r}") from None
    try:
        return InflowSeries(base.dates, base.values, normalization_constant=norm, window=meta.get("window", "daily"))
    except InputError as exc:
        raise InputError(f"{sidecar}: {exc}") from None


def write_inflow_csv(path, series: InflowSeries, sidecar=None, cleaning_report: dict | None = None) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "inflow_norm"])
        for d, v in zip(series.dates, series.values):
            w.writerow([str(d), _fmt(v)])
    if sidecar is not None:
        meta = {
            "normalization_constant": series.normalization_constant,
            "window": series.window,
            "n_values": int(len(series)),
        }
        if cleaning_report is not None:
            meta["cleaning_report"] = cleaning_report
        write_json(sidecar, meta)


def read_reanalysis_csv(path) -> DailySeries:
    """`date,precip_mm_day`."""
    series = read_daily_series_csv(path, "precip_mm_day")
    if np.any(series.values < 0):
        for lineno, row in _rows(Path(path), ("precip_mm_day",)):
            if float(row["precip_mm_day"]) < 0:
                raise InputError(f"{path}:{lineno}: negative precipitation rate {row['precip_mm_day']!r}")
    return series


def write_reanalysis_csv(path, series: DailySeries) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "precip_mm_day"])
        for d, v in zip(series.dates, series.values):
            w.writerow([str(d), _fmt(v)])


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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "month", "index"])
        for (y, m), value in nao.items():
            w.writerow([y, m, _fmt(value)])


# ---------------------------------------------------------------------------
# ensemble forecasts
# ---------------------------------------------------------------------------


_ENSEMBLE_SCHEMAS = {
    "daily": ("issue_date", "member", "lead_day", "precip_mm_day"),
    "split": ("issue_date", "member", "lead_day", "largescale_mm_day", "convective_mm_day"),
    "six_hourly": ("issue_date", "member", "lead_step_hours", "precip_mm"),
}
_ENSEMBLE_CONVERTERS = {"issue_date": _to_date, "member": int, "lead_day": int, "lead_step_hours": int}
_CHUNK_ROWS = 16384


def _line_of(path: Path, record: int) -> int:
    """Line number of body record ``record`` (0-based, blank lines included)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(reader, record + 2):
            pass
        return reader.line_num


def _ensemble_row_problem(fields: dict, mode: str) -> str | None:
    """What is wrong with one ensemble row, checked in column order, or None."""
    columns = _ENSEMBLE_SCHEMAS[mode]
    values = {}
    for c in columns:
        try:
            values[c] = _ENSEMBLE_CONVERTERS.get(c, float)(fields.get(c))
        except (TypeError, ValueError, AttributeError):
            return f"bad value {fields.get(c)!r} in column {c!r}"
        if c == "lead_step_hours" and (values[c] <= 0 or values[c] % 6):
            return "lead_step_hours must be a positive multiple of 6"
    if values.get("lead_day", 1) <= 0:
        return "lead day must be positive"
    for c in columns[3:]:
        if not (math.isfinite(values[c]) and values[c] >= 0):
            return f"precipitation must be finite and non-negative, got {fields[c]!r} in column {c!r}"
    return None


def _ensemble_chunk(path, header, mode, chunk, record, day_of):
    """Columns (issue day number, member, lead day, amount) of one chunk of rows,
    or None for a chunk of blank lines.

    ``record`` is the index of the chunk's first body record; ``day_of`` caches
    the day number of every issue_date string seen so far.  A chunk that
    fails a conversion or a check is scanned row by row for the first bad row.
    """
    columns = _ENSEMBLE_SCHEMAS[mode]
    rows = [row for row in chunk if row]
    if not rows:
        return None
    where = {name: i for i, name in enumerate(header)}  # last one wins, as in csv.DictReader
    try:
        cols = list(zip(*rows))  # as wide as the shortest row
        raw = [cols[where[c]] for c in columns]
        for s in set(raw[0]).difference(day_of):
            day_of[s] = int(_to_date(s).astype(np.int64))
        n = len(rows)
        issue = np.fromiter(map(day_of.__getitem__, raw[0]), np.int64, n)
        member = np.fromiter(map(int, raw[1]), np.int64, n)
        lead = np.fromiter(map(int, raw[2]), np.int64, n)
        values = [np.fromiter(map(float, col), float, n) for col in raw[3:]]
    except (IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        error = exc
    else:
        error = None
        flagged = (lead <= 0) | (lead % 6 != 0) if mode == "six_hourly" else lead <= 0
        for v in values:
            flagged |= ~np.isfinite(v) | (v < 0)
        if not flagged.any():
            day = (lead + 23) // 24 if mode == "six_hourly" else lead
            return issue, member, day, values[0] + values[1] if mode == "split" else values[0]
    for k, row in enumerate(chunk):
        problem = row and _ensemble_row_problem(dict(zip(header, row)), mode)
        if problem:
            raise InputError(f"{path}:{_line_of(path, record + k)}: {problem}")
    raise InputError(f"{path}: a value from line {_line_of(path, record)} on is out of range ({error})")


def read_ensemble_csv(path, min_lead_days: int = 42) -> list[EnsemblePrecipForecast]:
    """Long-form ensemble file, daily or 6-hourly.

    Daily rows: `issue_date,member,lead_day,precip_mm_day`.  Six-hourly rows
    (`issue_date,member,lead_step_hours,precip_mm`) are summed into daily
    totals, i.e. mm/day rates, in row order.  When total precipitation is
    split into `largescale_mm_day` and `convective_mm_day` columns the two
    are summed.  Rows may come in any order; every issue must have the same
    members and each member at least ``min_lead_days`` complete lead days
    (the issue is cut to the shortest member).

    The body is read in chunks of ``_CHUNK_ROWS`` rows, each converted column
    by column; a failing chunk is scanned row by row only to name the line.
    """
    path = _require(Path(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        cols = set(header)
        for mode, required in _ENSEMBLE_SCHEMAS.items():
            if set(required) <= cols:
                break
        else:
            raise InputError(f"{path}: unrecognised ensemble schema (header: {sorted(cols)})")
        parts, record, day_of = [], 0, {}
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            part = _ensemble_chunk(path, header, mode, chunk, record, day_of)
            if part is not None:
                parts.append(part)
            record += len(chunk)
    if not parts:
        raise InputError(f"{path}: no forecast rows")
    issue, member, day, amount = (np.concatenate(c) for c in zip(*parts))

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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["issue_date", "member", "lead_day", "precip_mm_day"])
        for f in forecasts:
            for k in range(f.n_members):
                for d in range(1, f.n_lead_days + 1):
                    w.writerow([f.issue_date.isoformat(), k, d, _fmt(f.members[k, d - 1])])


# ---------------------------------------------------------------------------
# tabular outputs
# ---------------------------------------------------------------------------


def write_table_csv(path, header, rows) -> None:
    """Generic deterministic CSV writer; floats via repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])


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
