"""Daily time-series containers shared by the ingest, forecast and scoring code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

ONE_DAY = np.timedelta64(1, "D")


@dataclass(frozen=True)
class DailySeries:
    """A (possibly gappy) daily-valued series indexed by calendar date.

    Dates must be strictly increasing; missing days are simply absent rather
    than stored as NaN.
    """

    dates: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype="datetime64[D]"))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.dates.shape != self.values.shape or self.dates.ndim != 1:
            raise InputError("dates and values must be 1-D arrays of equal length")
        if len(self.dates) == 0:
            raise InputError("empty series")
        if np.any(np.diff(self.dates) <= np.timedelta64(0, "D")):
            raise InputError("dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    def window_mean(self, start, end) -> float | None:
        """Mean of the values on days [start, end] inclusive.

        Returns None unless every calendar day in the window is present
        (partial windows would bias horizon means).
        """
        start = np.datetime64(start, "D")
        end = np.datetime64(end, "D")
        if end < start:
            raise InputError("window end precedes start")
        n_expected = int((end - start) / ONE_DAY) + 1
        lo = np.searchsorted(self.dates, start, side="left")
        hi = np.searchsorted(self.dates, end, side="right")
        if hi - lo != n_expected:
            return None
        return float(self.values[lo:hi].mean())


@dataclass(frozen=True)
class InflowSeries(DailySeries):
    """Aggregated net-inflow series, normalised by its record-wide mean rate.

    ``normalization_constant`` is the mean rate (m3/s) that the stored values
    were divided by; values are dimensionless and may be negative.  For weekly
    aggregates the dates are the window start days.
    """

    normalization_constant: float = 1.0
    window: str = "daily"

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.normalization_constant) and self.normalization_constant > 0):
            raise InputError(f"normalization constant must be finite and positive, got {self.normalization_constant}")
        if self.window not in ("daily", "weekly"):
            raise InputError(f"unknown window {self.window!r}")


def year_of(day) -> int:
    return int(np.datetime64(day, "Y").astype(int)) + 1970


def month_of(day) -> int:
    d = np.datetime64(day, "D")
    return int((d.astype("datetime64[M]") - d.astype("datetime64[Y]")) / np.timedelta64(1, "M")) + 1
