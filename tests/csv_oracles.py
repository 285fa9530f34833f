"""Reference CSV writers and row readers: the field-at-a-time formulation `inflowcast.io` replaced.

The writers format every field with ``_fmt`` (``repr`` of floats, numpy's
too, and ``str`` of anything else) and hand the rows to ``csv.writer``; the
readers convert one ``csv.DictReader`` row at a time.  Tests compare the
column writers and the ``np.loadtxt`` readers of `inflowcast.io` with them
byte for byte and message for message.

One change from the original: ``_parse`` also turns an ``AttributeError``
into its "bad value" message.  The original let it escape, as a traceback,
when a short row left a date column out (``None.strip()``).
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np

from inflowcast.errors import InputError
from inflowcast.io import _check_bytes, _require
from inflowcast.series import DailySeries, InflowSeries
from inflowcast.telemetry import TelemetrySeries

# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_telemetry_csv(path, telemetry) -> None:
    rows = zip((f"{t}Z" for t in telemetry.timestamps), map(_fmt, telemetry.water_level), map(_fmt, telemetry.power))
    _write_csv(path, ["timestamp", "water_level_m", "power_w"], rows)


def write_grid_table_csv(path, table) -> None:
    rows = ([_fmt(p), *map(_fmt, row)] for p, row in zip(table.power_axis, table.values))
    _write_csv(path, ["power_w", *map(_fmt, table.level_axis)], rows)


def write_storage_csv(path, curve) -> None:
    _write_csv(path, ["level_m", "volume_m3"], zip(map(_fmt, curve.level_axis), map(_fmt, curve.volume)))


def write_compensation_csv(path, schedule) -> None:
    rows = zip(schedule.starts, schedule.ends, map(_fmt, schedule.rates))
    _write_csv(path, ["start_date", "end_date", "flow_m3s"], rows)


def write_inflow_csv(path, series) -> None:
    _write_csv(path, ["date", "inflow_norm"], zip(series.dates, map(_fmt, series.values)))


def write_reanalysis_csv(path, series) -> None:
    _write_csv(path, ["date", "precip_mm_day"], zip(series.dates, map(_fmt, series.values)))


def write_nao_csv(path, nao) -> None:
    _write_csv(path, ["year", "month", "index"], ((y, m, _fmt(value)) for (y, m), value in nao.items()))


def write_ensemble_csv(path, forecasts) -> None:
    rows = (
        (f.issue_date, k, d, _fmt(v))
        for f in forecasts
        for k, member in enumerate(f.members.tolist())
        for d, v in enumerate(member, 1)
    )
    _write_csv(path, ["issue_date", "member", "lead_day", "precip_mm_day"], rows)


def write_table_csv(path, header, rows) -> None:
    _write_csv(path, header, ([_fmt(c) for c in row] for row in rows))


# ---------------------------------------------------------------------------
# row readers
# ---------------------------------------------------------------------------


def _rows(path: Path, required: tuple[str, ...]):
    path = _require(path)
    _check_bytes(path)
    with open(path, newline="", encoding="utf-8") as fh:
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
    except (TypeError, ValueError, AttributeError):
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


def read_telemetry_csv(path) -> TelemetrySeries:
    ts, level, power = [], [], []
    for lineno, row in _rows(Path(path), ("timestamp", "water_level_m", "power_w")):
        ts.append(_parse(path, lineno, row, "timestamp", _to_timestamp))
        if len(ts) > 1 and ts[-1] <= ts[-2]:
            raise InputError(f"{path}:{lineno}: telemetry timestamps must be strictly increasing: {ts[-1]} is not after {ts[-2]}")
        level.append(_parse(path, lineno, row, "water_level_m", float))
        power.append(_parse(path, lineno, row, "power_w", float))
    if not ts:
        raise InputError(f"{path}: no telemetry rows")
    return TelemetrySeries(np.array(ts, dtype="datetime64[s]"), level, power)


def read_daily_series_csv(path, value_column: str, date_column: str = "date") -> DailySeries:
    dates, values = [], []
    for lineno, row in _rows(Path(path), (date_column, value_column)):
        dates.append(_parse(path, lineno, row, date_column, _to_date))
        if len(dates) > 1 and dates[-1] <= dates[-2]:
            raise InputError(f"{path}:{lineno}: date {dates[-1]} is not after {dates[-2]}")
        values.append(_parse_finite(path, lineno, row, value_column))
    if not dates:
        raise InputError(f"{path}: no rows")
    return DailySeries(np.array(dates, dtype="datetime64[D]"), values)


def read_inflow_csv(path) -> InflowSeries:
    base = read_daily_series_csv(path, "inflow_norm")
    return InflowSeries(base.dates, base.values)


def read_reanalysis_csv(path) -> DailySeries:
    series = read_daily_series_csv(path, "precip_mm_day")
    for lineno, row in _rows(Path(path), ("precip_mm_day",)):
        if float(row["precip_mm_day"]) < 0:
            raise InputError(f"{path}:{lineno}: negative precipitation rate {row['precip_mm_day']!r}")
    return series
