"""End-to-end orchestration: cross-validated training, prediction, scoring, valuation.

The cross-validation contract runs through everything here: for a forecast
year Y the precipitation regression, the per-horizon EMOS models and the
climatology benchmarks all leave out the years ``regression.withheld`` names,
Y and Y+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costmodel import CostCases, OperatingEnvelope
from .data import CANONICAL_HORIZONS, HorizonSpec, NaoIndex, horizon_average
from .emos import EmosModel, compute_feature_matrix, fit_emos
from .errors import InputError, LeakageError, NumericalError
from .regression import WEEK1, LinearInflowModel, run_cross_validation, withheld
from .series import DailySeries
from .splines import CyclicSplineBasis, seasonal_phase
from .verification import (
    DEFAULT_LEVELS,
    RELIABILITY_MIN_CASES,
    ReliabilityDiagram,
    SkillReport,
    crps_zaga_batch,
    fair_crps_many,
    fair_crps_sample,
    reliability_diagram,
    skill_report,
    stratum_mask,
)
from .zaga import ZagaDistribution

QUANTILE_COLUMNS = (0.05, 0.25, 0.5, 0.75, 0.95)


# ---------------------------------------------------------------------------
# case tables
# ---------------------------------------------------------------------------


@dataclass
class HorizonCaseTable:
    """Per-horizon alignment of issues, ensemble statistics and observations."""

    horizon: HorizonSpec
    issue_dates: np.ndarray  # (n,) datetime64[D]
    issue_years: np.ndarray  # (n,) int
    member_matrix: np.ndarray  # (n, K) precip horizon means, mm/day
    obs_inflow: np.ndarray  # (n,) horizon-mean inflow; NaN if unobserved
    obs_precip: np.ndarray  # (n,) horizon-mean reanalysis precip; NaN if absent

    def __len__(self) -> int:
        return len(self.issue_dates)


def _observed_means(series: DailySeries | None, issue_dates: np.ndarray, horizon: HorizonSpec) -> np.ndarray:
    """Mean of ``series`` over each issue's horizon window; NaN unless every day is present."""
    out = np.full(len(issue_dates), np.nan)
    if series is None:
        return out
    n = horizon.n_days
    lo = np.searchsorted(series.dates, issue_dates + np.timedelta64(horizon.start_day, "D"))
    # dates strictly increase, so all n days are present iff the entry n - 1 places on is the last one
    last = lo + n - 1
    complete = last < len(series)
    complete[complete] = series.dates[last[complete]] == issue_dates[complete] + np.timedelta64(horizon.end_day, "D")
    rows = np.flatnonzero(complete)
    out[rows] = series.values[lo[rows, None] + np.arange(n)].mean(axis=1)
    return out


def build_case_tables(
    issues,
    inflow: DailySeries,
    horizons=CANONICAL_HORIZONS,
    reanalysis: DailySeries | None = None,
) -> dict[str, HorizonCaseTable]:
    issues = sorted(issues, key=lambda f: f.issue_date)
    if not issues:
        raise InputError("no forecast issues")
    n_lead = min(f.n_lead_days for f in issues)
    for h in horizons:
        if h.end_day > n_lead:
            horizon_average(next(f for f in issues if f.n_lead_days < h.end_day), h)  # raises, naming the issue
    dates = np.array([np.datetime64(f.issue_date, "D") for f in issues])
    years = dates.astype("datetime64[Y]").astype(int) + 1970
    lead_days = np.stack([f.members[:, : max((h.end_day for h in horizons), default=0)] for f in issues])
    return {
        h.name: HorizonCaseTable(
            h,
            dates,
            years,
            lead_days[:, :, h.start_day - 1 : h.end_day].mean(axis=2),
            _observed_means(inflow, dates, h),
            _observed_means(reanalysis, dates, h),
        )
        for h in horizons
    }


def climatology_scores(table: HorizonCaseTable, values: np.ndarray, score, min_years: int = 3) -> np.ndarray:
    """Score every observed case against its monthly climatology; NaN where unusable.

    ``values`` is a column of ``table`` (``obs_inflow`` or ``obs_precip``).
    The climatology of issue month m and forecast year Y is every observed
    value issued in month m outside the years the fold of Y withholds
    (``withheld``).  ``score(sample, observations)`` is called once per (m, Y)
    group with the observations of that group's cases and returns one value
    per observation, or one for all.
    A group whose sample spans fewer than ``min_years`` years stays NaN.
    """
    observed = ~np.isnan(values)
    months = table.issue_dates.astype("datetime64[M]").astype(np.int64) % 12
    years = table.issue_years
    out = np.full(len(values), np.nan)
    for month in np.unique(months[observed]):
        in_month = observed & (months == month)
        for year in np.unique(years[in_month]):
            sample = in_month & ~withheld(years, year)
            if len(np.unique(years[sample])) >= min_years:
                cases = in_month & (years == year)
                out[cases] = score(values[sample], values[cases])
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainedModels:
    regressions: dict[int, LinearInflowModel]
    emos: dict[tuple[str, int], EmosModel]  # (horizon name, fold year)
    horizons: tuple[HorizonSpec, ...]
    basis: CyclicSplineBasis

    def to_dict(self) -> dict:
        return {
            "horizons": [
                {"name": h.name, "start_day": h.start_day, "end_day": h.end_day}
                for h in self.horizons
            ],
            "n_knots": self.basis.n_knots,
            "period": self.basis.period,
            "regressions": {str(y): m.to_dict() for y, m in sorted(self.regressions.items())},
            "emos": [m.to_dict() for _, m in sorted(self.emos.items())],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedModels":
        horizons = tuple(
            HorizonSpec(h["name"], int(h["start_day"]), int(h["end_day"])) for h in d["horizons"]
        )
        basis = CyclicSplineBasis(int(d["n_knots"]), float(d["period"]))
        regressions = {int(y): LinearInflowModel.from_dict(m) for y, m in d["regressions"].items()}
        emos = {}
        for m in d["emos"]:
            model = EmosModel.from_dict(m)
            emos[(model.horizon, int(model.fold_year))] = model
        return cls(regressions=regressions, emos=emos, horizons=horizons, basis=basis)


def train_models(
    issues,
    inflow: DailySeries,
    horizons=CANONICAL_HORIZONS,
    member_wise: bool = True,
    n_knots: int = 6,
    ridge: float = 1e-6,
    n_starts: int = 3,
    min_cases: int = 100,
    min_years: int = 4,
    min_pairs: int = 30,
    seed: int = 0,
    tables: dict[str, HorizonCaseTable] | None = None,
) -> TrainedModels:
    """Fit the fold regressions and one EMOS model per (horizon, fold)."""
    tables = tables or build_case_tables(issues, inflow, horizons)
    week1 = tables[WEEK1.name] if WEEK1.name in tables else build_case_tables(issues, inflow, (WEEK1,))[WEEK1.name]
    regressions = run_cross_validation(week1, member_wise=member_wise, min_years=min_years, min_pairs=min_pairs)
    basis = CyclicSplineBasis(n_knots)

    emos: dict[tuple[str, int], EmosModel] = {}
    for h_index, h in enumerate(horizons):
        table = tables[h.name]
        for fold_year, reg in sorted(regressions.items()):
            train_mask = ~np.isnan(table.obs_inflow) & ~withheld(table.issue_years, fold_year)
            if train_mask.sum() < min_cases:
                raise InputError(
                    f"horizon '{h.name}' fold {fold_year}: {int(train_mask.sum())} training "
                    f"cases is below the minimum of {min_cases}"
                )
            bench = reg.predict(table.member_matrix[train_mask])
            fit_seed = int(np.random.SeedSequence([seed, fold_year, h_index]).generate_state(1)[0])
            emos[(h.name, fold_year)] = fit_emos(
                features=compute_feature_matrix(bench),
                dates=table.issue_dates[train_mask],
                inflow_obs=table.obs_inflow[train_mask],
                basis=basis,
                horizon=h.name,
                fold_year=fold_year,
                ridge=ridge,
                n_starts=n_starts,
                min_cases=min_cases,
                seed=fit_seed,
                compute_se=False,
            )

    return TrainedModels(regressions=regressions, emos=emos, horizons=tuple(horizons), basis=basis)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


@dataclass
class PredictedParams:
    """Predictive distributions aligned with a HorizonCaseTable's rows."""

    dist: ZagaDistribution  # one case per row
    benchmark: np.ndarray  # (n, K) benchmark ensemble inflow members


def predict_params(
    models: TrainedModels, tables: dict[str, HorizonCaseTable]
) -> dict[str, PredictedParams]:
    """Out-of-sample predictive distributions for every case, fold by fold."""
    out = {}
    for h in models.horizons:
        table = tables[h.name]
        params = np.full((4, len(table)), np.nan)  # mu, sigma, nu, offset
        benchmark = np.full_like(table.member_matrix, np.nan)
        phases = seasonal_phase(table.issue_dates, models.basis.period)
        for fold_year, reg in models.regressions.items():
            leaked = [y for y in sorted(reg.training_years) if withheld(y, fold_year)]
            if leaked:
                raise LeakageError(
                    f"horizon '{h.name}' fold {fold_year}: the regression was trained on years "
                    f"{leaked}, which the fold must withhold"
                )
            mask = table.issue_years == fold_year
            if not mask.any():
                continue
            emos = models.emos.get((h.name, fold_year))
            if emos is None:
                raise InputError(f"no EMOS model for horizon '{h.name}' fold {fold_year}")
            bench = reg.predict(table.member_matrix[mask])
            feats = compute_feature_matrix(bench)
            with np.errstate(over="ignore", invalid="ignore"):
                m, s, v = emos.params_for(feats, phases[mask])
            try:
                ZagaDistribution(m, s, v, emos.offset)
            except ValueError as exc:
                raise NumericalError(f"horizon '{h.name}' fold {fold_year}: the model gives {exc}") from None
            params[:, mask] = m, s, v, np.full(len(m), emos.offset)
            benchmark[mask] = bench
        if np.isnan(params[0]).any():
            missing = table.issue_years[np.isnan(params[0])]
            raise InputError(f"horizon '{h.name}': no fold model covers years {sorted(set(missing))}")
        out[h.name] = PredictedParams(ZagaDistribution(*params), benchmark)
    return out


def forecast_rows(models: TrainedModels, tables, predictions) -> list[list]:
    """Rows for the forecast CSV: quantiles plus distribution parameters."""
    rows = []
    for h in models.horizons:
        dist = predictions[h.name].dist
        q = dist.quantile(QUANTILE_COLUMNS)
        columns = (tables[h.name].issue_dates.astype(str), *q.T, dist.nu, dist.mu, dist.sigma, dist.offset)
        rows += [[date, h.name, *values] for date, *values in zip(*(c.tolist() for c in columns))]
    return rows


FORECAST_HEADER = (
    "issue_date",
    "horizon",
    "q05",
    "q25",
    "q50",
    "q75",
    "q95",
    "nu",
    "mu",
    "sigma",
    "offset",
)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    skill: list[tuple[str, SkillReport]] = field(default_factory=list)  # (variable, report)
    reliability: dict[str, ReliabilityDiagram] = field(default_factory=dict)

    def lookup(self, variable: str, horizon: str, stratum: str = "all") -> SkillReport | None:
        for var, rep in self.skill:
            if var == variable and rep.horizon == horizon and rep.stratum == stratum:
                return rep
        return None

    def to_dict(self) -> dict:
        return {
            "skill": [dict(rep.to_dict(), variable=var) for var, rep in self.skill],
            "reliability": {
                h: {
                    "levels": d.levels.tolist(),
                    "coverage": d.coverage.tolist(),
                    "n_cases": d.n_cases,
                }
                for h, d in self.reliability.items()
            },
        }


def verify_skill(
    models: TrainedModels,
    tables: dict[str, HorizonCaseTable],
    predictions: dict[str, PredictedParams],
    nao: NaoIndex | None = None,
    reanalysis: DailySeries | None = None,
    n_boot: int = 1000,
    seed: int = 0,
    min_cases: int = 20,
    min_clim_years: int = 3,
) -> VerificationReport:
    """Score EMOS, benchmark and (optionally) raw precip forecasts against climatology.

    Every case is scored against the fair CRPS of its month's climatological
    sample (``climatology_scores``: forecast year and successor excluded);
    skill reports are produced per horizon, plus season and NAO strata for the
    calibrated forecasts.  The observations come from ``tables``;
    ``reanalysis`` only switches the precipitation scores on.
    """
    report = VerificationReport()
    for h in models.horizons:
        table = tables[h.name]
        pred = predictions[h.name]
        clim_scores = climatology_scores(table, table.obs_inflow, fair_crps_sample, min_clim_years)
        idx = np.flatnonzero(~np.isnan(clim_scores))
        if len(idx) >= min_cases:
            emos_scores = crps_zaga_batch(pred.dist[idx], table.obs_inflow[idx])
            bench_scores = fair_crps_many(pred.benchmark[idx], table.obs_inflow[idx])
            cs = clim_scores[idx]
            both = {"inflow_emos": emos_scores, "inflow_benchmark": bench_scores}
            report.skill += skill_report(both, cs, h.name, "all", n_boot=n_boot, seed=seed, min_cases=min_cases)

            # seasonal and circulation-index strata for the calibrated forecasts
            strata = [("summer", "any"), ("winter", "any")]
            if nao is not None:
                strata += [
                    ("all", "positive"),
                    ("all", "negative"),
                    ("winter", "positive"),
                    ("winter", "negative"),
                    ("summer", "positive"),
                    ("summer", "negative"),
                ]
            for season, nao_cond in strata:
                smask = stratum_mask(
                    table.issue_dates[idx], h, season=season, nao_condition=nao_cond, nao=nao
                )
                if smask.sum() < min_cases:
                    continue
                label = season if nao_cond == "any" else f"{season}/nao_{nao_cond}"
                report.skill += skill_report(
                    {"inflow_emos": emos_scores[smask]}, cs[smask], h.name, label, n_boot=n_boot, seed=seed, min_cases=min_cases
                )

            # reliability of the calibrated forecasts
            if len(idx) >= RELIABILITY_MIN_CASES:
                report.reliability[h.name] = reliability_diagram(
                    table.obs_inflow[idx], pred.dist[idx].quantile(DEFAULT_LEVELS), DEFAULT_LEVELS
                )

        # raw ensemble precipitation skill against reanalysis
        if reanalysis is not None:
            p_clim = climatology_scores(table, table.obs_precip, fair_crps_sample, min_clim_years)
            pidx = np.flatnonzero(~np.isnan(p_clim))
            if len(pidx) >= min_cases:
                precip_scores = fair_crps_many(table.member_matrix[pidx], table.obs_precip[pidx])
                report.skill += skill_report(
                    {"precip_ensemble": precip_scores}, p_clim[pidx], h.name, "all", n_boot=n_boot, seed=seed, min_cases=min_cases
                )

    return report


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostSettings:
    peak_price: float = 50.0
    differentials: tuple = tuple(range(5, 101, 5))
    decision_differential: float = 30.0
    free_up_frac: float = 0.2
    free_down_frac: float = 0.2
    stage2_up_frac: float = 0.2
    stage2_down_frac: float = 0.5
    max_capacity_frac: float = 2.4
    energy_per_inflow_day: float = 10.0  # MWh per unit normalised inflow per day
    n_boot: int = 1000


def build_cost_cases(
    models: TrainedModels,
    tables: dict[str, HorizonCaseTable],
    predictions: dict[str, PredictedParams],
    settings: CostSettings,
    min_clim_years: int = 3,
) -> CostCases:
    """One cost case per scored forecast, with all three competing forecasts attached.

    Observations and climatology medians come from ``tables``.  Cases without
    a climatology, or whose climatological median is not positive (no planned
    generation to adjust against), are left out.  The cases of every horizon
    are concatenated in the order of ``models.horizons``.
    """
    parts = [(np.empty(0, "datetime64[D]"), np.empty(0, str), *[np.empty(0)] * 8)]  # typed even with no horizons
    for h in models.horizons:
        table = tables[h.name]
        medians = climatology_scores(table, table.obs_inflow, lambda sample, _: np.median(sample), min_clim_years)
        keep = np.flatnonzero(medians > 0)
        dist = predictions[h.name].dist[keep]
        parts.append(
            (
                table.issue_dates[keep],
                np.full(len(keep), h.name),
                table.obs_inflow[keep],
                medians[keep],
                dist.quantile(0.5),
                np.full(len(keep), settings.energy_per_inflow_day * h.n_days),
                dist.mu,
                dist.sigma,
                dist.nu,
                dist.offset,
            )
        )
    dates, names, observed, clim, det, epi, *zaga = (np.concatenate(column) for column in zip(*parts))
    envelope = OperatingEnvelope(
        clim_generation=clim * epi,
        free_up_frac=settings.free_up_frac,
        free_down_frac=settings.free_down_frac,
        stage2_up_frac=settings.stage2_up_frac,
        stage2_down_frac=settings.stage2_down_frac,
        max_capacity_frac=settings.max_capacity_frac,
        energy_per_inflow=epi,
    )
    return CostCases(dates, names, observed, envelope, clim, det, ZagaDistribution(*zaga))
