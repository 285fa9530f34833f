"""Cyclic cubic B-spline basis for smooth seasonal terms.

Evenly spaced knots on a circle of circumference ``period`` make every basis
function a wrapped copy of the cardinal cubic B-spline, so the basis sums to
one pointwise and is C2-continuous across the year boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_PERIOD = 365.25
_EPOCH = np.datetime64("2000-01-01", "D")


def seasonal_phase(dates, period: float = DEFAULT_PERIOD) -> np.ndarray:
    """Map dates to a phase in [0, period); days elapsed since 2000-01-01 modulo period.

    Using elapsed days rather than the calendar day-of-year keeps the phase
    smooth across leap years for the non-integer default period.
    """
    days = (np.asarray(dates, dtype="datetime64[D]") - _EPOCH) / np.timedelta64(1, "D")
    return np.mod(days, period)


def _cardinal_b3(u: np.ndarray) -> np.ndarray:
    """Cardinal cubic B-spline, supported on |u| < 2."""
    au = np.abs(u)
    inner = 2.0 / 3.0 - au**2 + 0.5 * au**3
    outer = (2.0 - au) ** 3 / 6.0
    return np.where(au < 1.0, inner, np.where(au < 2.0, outer, 0.0))


@dataclass(frozen=True)
class CyclicSplineBasis:
    """Cyclic cubic B-spline basis with ``n_knots`` evenly spaced knots."""

    n_knots: int = 6
    period: float = DEFAULT_PERIOD

    def __post_init__(self):
        if self.n_knots < 4:
            raise InputError("cyclic cubic basis requires at least 4 knots")
        if self.period <= 0:
            raise InputError("period must be positive")

    @property
    def knots(self) -> np.ndarray:
        return np.arange(self.n_knots) * self.period / self.n_knots

    def design(self, phase) -> np.ndarray:
        """Evaluate the basis at phases; returns (n, n_knots)."""
        phase = np.atleast_1d(np.asarray(phase, dtype=float))
        h = self.period / self.n_knots
        delta = phase[:, None] - self.knots[None, :]
        # wrap signed distances into [-period/2, period/2)
        delta = np.mod(delta + 0.5 * self.period, self.period) - 0.5 * self.period
        return _cardinal_b3(delta / h)
