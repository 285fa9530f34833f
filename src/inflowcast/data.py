"""Ensemble precipitation forecasts, forecast horizons, monthly climatology and the NAO index."""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .horizons import CANONICAL_WINDOWS
from .series import DailySeries, month_of, year_of

# ---------------------------------------------------------------------------
# horizons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HorizonSpec:
    """Forecast averaging window in whole lead days (1-based, inclusive)."""

    name: str
    start_day: int
    end_day: int

    def __post_init__(self):
        if not (1 <= self.start_day <= self.end_day):
            raise InputError(f"invalid horizon days {self.start_day}..{self.end_day}")

    @property
    def n_days(self) -> int:
        return self.end_day - self.start_day + 1

    def window(self, issue_date) -> tuple[np.datetime64, np.datetime64]:
        """Calendar window covered by this horizon for a given issue date."""
        issue = np.datetime64(issue_date, "D")
        return (
            issue + np.timedelta64(self.start_day, "D"),
            issue + np.timedelta64(self.end_day, "D"),
        )


CANONICAL_HORIZONS: tuple[HorizonSpec, ...] = tuple(HorizonSpec(*window) for window in CANONICAL_WINDOWS)

WEEKLY_HORIZONS = CANONICAL_HORIZONS[:6]
EXTENDED_HORIZONS = (CANONICAL_HORIZONS[0],) + CANONICAL_HORIZONS[6:]


def _norm_name(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", name.lower())


_BY_NORM = {_norm_name(h.name): h for h in CANONICAL_HORIZONS}
# short aliases: week1..week6 and 2week..6week
_ALIASES = {f"week{i}": f"forecastweek{i}" for i in range(1, 7)}
_ALIASES.update({f"{i}week": f"{i}weekforecast" for i in range(2, 7)})
_ALIASES["1week"] = "forecastweek1"


def horizon_by_name(name: str) -> HorizonSpec:
    key = _norm_name(name)
    key = _ALIASES.get(key, key)
    try:
        return _BY_NORM[key]
    except KeyError:
        raise InputError(f"unknown forecast horizon {name!r}") from None


# ---------------------------------------------------------------------------
# ensemble forecasts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsemblePrecipForecast:
    """One forecast issue: K member trajectories of daily precipitation rate (mm/day).

    ``members[k, d-1]`` is member k's rate for lead day d, i.e. the calendar
    day ``issue_date + d``.
    """

    issue_date: dt.date
    members: np.ndarray  # (K, n_lead_days)

    def __post_init__(self):
        object.__setattr__(self, "members", np.asarray(self.members, dtype=float))
        if self.members.ndim != 2 or self.members.shape[0] < 2:
            raise InputError("ensemble needs at least 2 members of equal lead length")
        if np.any(self.members < 0) or not np.all(np.isfinite(self.members)):
            raise InputError(f"negative or non-finite precipitation in issue {self.issue_date}")

    @property
    def n_members(self) -> int:
        return self.members.shape[0]

    @property
    def n_lead_days(self) -> int:
        return self.members.shape[1]


def horizon_average(forecast: EnsemblePrecipForecast, horizon: HorizonSpec) -> np.ndarray:
    """Member-wise mean rate over the horizon's lead days; shape (K,)."""
    if horizon.end_day > forecast.n_lead_days:
        raise InputError(
            f"issue {forecast.issue_date}: horizon '{horizon.name}' needs lead day "
            f"{horizon.end_day} but only {forecast.n_lead_days} are available"
        )
    return forecast.members[:, horizon.start_day - 1 : horizon.end_day].mean(axis=1)


def observed_horizon_mean(series: DailySeries, issue_date, horizon: HorizonSpec) -> float | None:
    """Mean observed value over the horizon window; None if any day is missing."""
    start, end = horizon.window(issue_date)
    return series.window_mean(start, end)


# ---------------------------------------------------------------------------
# monthly climatology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClimatologySample:
    """Horizon-mean values from historical issues in one calendar month.

    Issues from the forecast year and the subsequent year are excluded, so the
    sample is usable as an out-of-sample benchmark for that year.
    """

    month: int
    horizon: HorizonSpec
    forecast_year: int
    values: np.ndarray
    years: tuple[int, ...]

    def __post_init__(self):
        banned = {self.forecast_year, self.forecast_year + 1}
        if banned & set(self.years):
            raise InputError("climatology sample contains excluded years")


def build_climatology(
    series: DailySeries,
    horizon: HorizonSpec,
    target_month: int,
    forecast_year: int,
    issue_dates,
    min_years: int = 3,
) -> ClimatologySample:
    """Empirical climatology: one horizon mean per admissible historical issue.

    All issue dates whose month equals ``target_month`` contribute, except
    those issued in ``forecast_year`` or ``forecast_year + 1``; issues whose
    horizon window is not fully observed are skipped.
    """
    if not 1 <= target_month <= 12:
        raise InputError(f"invalid month {target_month}")
    values = []
    years = set()
    for issue in issue_dates:
        issue = np.datetime64(issue, "D")
        y = year_of(issue)
        if month_of(issue) != target_month or y in (forecast_year, forecast_year + 1):
            continue
        mean = observed_horizon_mean(series, issue, horizon)
        if mean is None:
            continue
        values.append(mean)
        years.add(y)
    if len(years) < min_years:
        raise InputError(
            f"climatology for month {target_month} / year {forecast_year} has only "
            f"{len(years)} admissible years (minimum {min_years})"
        )
    return ClimatologySample(
        month=target_month,
        horizon=horizon,
        forecast_year=forecast_year,
        values=np.asarray(values, dtype=float),
        years=tuple(sorted(years)),
    )


class ClimatologyCache:
    """Memoised climatology samples keyed by (month, horizon name, forecast year)."""

    def __init__(self, series: DailySeries, issue_dates, min_years: int = 3):
        self._series = series
        self._issues = [np.datetime64(d, "D") for d in issue_dates]
        self._min_years = min_years
        self._cache: dict[tuple[int, str, int], ClimatologySample] = {}

    def get(self, month: int, horizon: HorizonSpec, forecast_year: int) -> ClimatologySample:
        key = (month, horizon.name, forecast_year)
        if key not in self._cache:
            self._cache[key] = build_climatology(
                self._series, horizon, month, forecast_year, self._issues, self._min_years
            )
        return self._cache[key]


# ---------------------------------------------------------------------------
# circulation index
# ---------------------------------------------------------------------------


class NaoIndex:
    """Monthly atmospheric-circulation index keyed by (year, month)."""

    def __init__(self, entries: dict[tuple[int, int], float]):
        self._entries = dict(entries)

    def value(self, year: int, month: int) -> float | None:
        return self._entries.get((year, month))

    def items(self):
        return sorted(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)
