"""Benchmark inflow forecasts: a week-1 precipitation regression under cross-validation.

A single least-squares line from week-1 ensemble precipitation to the observed
7-day inflow is fitted per cross-validation fold and applied member-by-member
to every horizon, producing ensemble inflow forecasts in normalised inflow
units.  Folds exclude both the forecast year and the subsequent year so no
forecast is scored against a model that saw it.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import CANONICAL_HORIZONS, EnsemblePrecipForecast, HorizonSpec, horizon_average
from .errors import InputError, LeakageError
from .series import year_of

if TYPE_CHECKING:
    from .pipeline import HorizonCaseTable

WEEK1 = CANONICAL_HORIZONS[0]
MIN_YEARS = 4  # forecast years cross-validation needs
MIN_PAIRS = 30  # training pairs each regression needs


def withheld(years, fold_year: int):
    """Whether each of ``years`` is withheld from the fold of forecast year ``fold_year``.

    This is the cross-validation rule: the forecast year and the year after it
    are left out of the regression, the EMOS models and the climatology that
    score that year's forecasts.
    """
    years = np.asarray(years)
    return (years == fold_year) | (years == fold_year + 1)


@dataclass(frozen=True)
class LinearInflowModel:
    """Least-squares line mapping week-1 mean precipitation (mm/day) to inflow."""

    slope: float
    intercept: float
    training_years: frozenset[int]
    n_pairs: int

    def predict(self, precip):
        return self.slope * np.asarray(precip, dtype=float) + self.intercept

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "training_years": sorted(self.training_years),
            "n_pairs": self.n_pairs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearInflowModel":
        return cls(
            slope=float(d["slope"]),
            intercept=float(d["intercept"]),
            training_years=frozenset(int(y) for y in d["training_years"]),
            n_pairs=int(d["n_pairs"]),
        )


@dataclass(frozen=True)
class BenchmarkEnsembleForecast:
    """Ensemble inflow forecast obtained by regressing member precipitation."""

    issue_date: dt.date
    horizon: HorizonSpec
    members: np.ndarray  # (K,), normalised inflow; may be negative


def fit_week1_regression(precip, inflow, training_years) -> LinearInflowModel:
    """Ordinary least squares of observed inflow on week-1 precipitation."""
    x = np.asarray(precip, dtype=float)
    y = np.asarray(inflow, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError("precip and inflow must be 1-D arrays of equal length")
    if len(x) < MIN_PAIRS:
        raise InputError(f"{len(x)} training pairs is below the minimum of {MIN_PAIRS}")
    xc = x - x.mean()
    # numpy's pairwise sums, not BLAS dot products, whose order depends on the thread count
    sxx = float((xc * xc).sum())
    if sxx == 0.0:
        raise InputError("precipitation training values are constant; slope undefined")
    slope = float((xc * y).sum()) / sxx
    intercept = float(y.mean() - slope * x.mean())
    return LinearInflowModel(
        slope=slope,
        intercept=intercept,
        training_years=frozenset(int(t) for t in training_years),
        n_pairs=len(x),
    )


def build_training_pairs(week1: HorizonCaseTable, rows, member_wise: bool = True):
    """Week-1 (precip, observed inflow) pairs from the selected rows of a case table.

    With ``member_wise`` each member's week-1 mean forms its own pair against
    the single observed inflow; otherwise one pair per issue uses the ensemble
    mean.  Issues whose observation window is incomplete are dropped.
    """
    keep = rows & ~np.isnan(week1.obs_inflow)
    precip = week1.member_matrix[keep]
    if member_wise:
        return precip.ravel(), np.repeat(week1.obs_inflow[keep], precip.shape[1])
    return precip.mean(axis=1), week1.obs_inflow[keep]


def generate_benchmark(
    forecast: EnsemblePrecipForecast,
    horizon: HorizonSpec,
    model: LinearInflowModel,
) -> BenchmarkEnsembleForecast:
    """Apply the regression to each member's horizon-mean precipitation."""
    issue_year = year_of(forecast.issue_date)
    overlap = [y for y in sorted(model.training_years) if withheld(y, issue_year)]
    if overlap:
        raise LeakageError(f"model trained on years {overlap} cannot forecast an issue from {issue_year}")
    members = model.predict(horizon_average(forecast, horizon))
    return BenchmarkEnsembleForecast(forecast.issue_date, horizon, members)


def run_cross_validation(week1: HorizonCaseTable, member_wise: bool = True) -> dict[int, LinearInflowModel]:
    """One week-1 regression per forecast year, keyed by that year.

    For each forecast year Y the line is fitted on the Forecast Week 1 case
    table without the issues of the years its fold withholds (``withheld``).
    """
    years = week1.issue_years
    # a set, not np.unique: numpy's unique imports numpy.ma, which nothing here uses
    fold_years = sorted(set(years.tolist()))
    if len(fold_years) < MIN_YEARS:
        raise InputError(f"cross-validation needs at least {MIN_YEARS} years, got {len(fold_years)}")

    models: dict[int, LinearInflowModel] = {}
    for fold_year in fold_years:
        train = ~withheld(years, fold_year)
        x, y = build_training_pairs(week1, train, member_wise=member_wise)
        if len(x) < MIN_PAIRS:
            raise InputError(f"fold {fold_year}: only {len(x)} training pairs (minimum {MIN_PAIRS})")
        models[fold_year] = fit_week1_regression(x, y, sorted(set(years[train].tolist())))
    return models
