"""End-to-end orchestration: cross-validated training, prediction, scoring, valuation.

The cross-validation contract runs through everything here: for a forecast
year Y both the precipitation regression and the per-horizon EMOS models are
fitted with years Y and Y+1 withheld, and climatology benchmarks exclude the
same years.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costmodel import CostCases, OperatingEnvelope
from .data import CANONICAL_HORIZONS, HorizonSpec, NaoIndex, horizon_average
from .emos import EmosModel, compute_feature_matrix, fit_emos
from .errors import InputError, LeakageError, NumericalError
from .regression import WEEK1, LinearInflowModel, run_cross_validation
from .series import DailySeries
from .splines import CyclicSplineBasis, seasonal_phase
from .verification import (
    ReliabilityDiagram,
    SkillReport,
    crps_zaga_batch,
    fair_crps_many,
    fair_crps_sample,
    reliability_diagram,
    skill_report,
    stratum_mask,
)
from .zaga import ZagaDistribution, gamma_ppf

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
    value issued in month m outside years Y and Y + 1.  ``score(sample,
    observations)`` is called once per (m, Y) group with the observations of
    that group's cases and returns one value per observation, or one for all.
    A group whose sample spans fewer than ``min_years`` years stays NaN.
    """
    observed = ~np.isnan(values)
    months = table.issue_dates.astype("datetime64[M]").astype(np.int64) % 12
    years = table.issue_years
    out = np.full(len(values), np.nan)
    for month in np.unique(months[observed]):
        in_month = observed & (months == month)
        for year in np.unique(years[in_month]):
            sample = in_month & (years != year) & (years != year + 1)
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
            train_mask = (
                ~np.isnan(table.obs_inflow)
                & (table.issue_years != fold_year)
                & (table.issue_years != fold_year + 1)
            )
            if train_mask.sum() < min_cases:
                raise InputError(
                    f"horizon '{h.name}' fold {fold_year}: {int(train_mask.sum())} training "
                    f"cases is below the minimum of {min_cases}"
                )
            bench = reg.slope * table.member_matrix[train_mask] + reg.intercept
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
    """Distribution parameters aligned with a HorizonCaseTable's rows."""

    mu: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray
    offset: np.ndarray
    benchmark: np.ndarray  # (n, K) benchmark ensemble inflow members

    def quantiles(self, levels) -> np.ndarray:
        """User-space quantiles, shape (n, len(levels))."""
        levels = np.asarray(levels, dtype=float)
        shape = 1.0 / self.sigma**2
        scale = self.sigma**2 * self.mu
        p = (levels[None, :] - self.nu[:, None]) / (1.0 - self.nu[:, None])
        in_atom = levels[None, :] <= self.nu[:, None]
        q = np.where(
            in_atom,
            0.0,
            gamma_ppf(np.where(in_atom, 0.5, p), shape[:, None], scale[:, None]),
        )
        return q - self.offset[:, None]


def _check_params(horizon: str, fold_year: int, mu, sigma, nu, offset) -> None:
    """Reject a fold model whose ZAGA parameters are non-finite or out of range."""
    for name, x, valid in (
        ("mu", mu, mu > 0),
        ("sigma", sigma, sigma > 0),
        ("nu", nu, (nu >= 0) & (nu < 1)),
        ("offset", offset, offset >= 0),
    ):
        bad = ~(np.isfinite(x) & valid)
        if bad.any():
            raise NumericalError(
                f"horizon '{horizon}' fold {fold_year}: the model gives {name} = {x[bad][0]}; "
                "ZAGA needs finite mu > 0, sigma > 0, 0 <= nu < 1 and offset >= 0"
            )


def predict_params(
    models: TrainedModels, tables: dict[str, HorizonCaseTable]
) -> dict[str, PredictedParams]:
    """Out-of-sample predictive parameters for every case, fold by fold."""
    out = {}
    for h in models.horizons:
        table = tables[h.name]
        n = len(table)
        mu = np.full(n, np.nan)
        sigma = np.full(n, np.nan)
        nu = np.full(n, np.nan)
        offset = np.full(n, np.nan)
        benchmark = np.full_like(table.member_matrix, np.nan)
        phases = seasonal_phase(table.issue_dates, models.basis.period)
        for fold_year, reg in models.regressions.items():
            leaked = reg.training_years & {fold_year, fold_year + 1}
            if leaked:
                raise LeakageError(
                    f"horizon '{h.name}' fold {fold_year}: the regression was trained on years "
                    f"{sorted(leaked)}, which the fold must withhold"
                )
            mask = table.issue_years == fold_year
            if not mask.any():
                continue
            emos = models.emos.get((h.name, fold_year))
            if emos is None:
                raise InputError(f"no EMOS model for horizon '{h.name}' fold {fold_year}")
            bench = reg.slope * table.member_matrix[mask] + reg.intercept
            feats = compute_feature_matrix(bench)
            with np.errstate(over="ignore", invalid="ignore"):
                m, s, v = emos.params_for(feats, phases[mask])
            _check_params(h.name, fold_year, m, s, v, np.array([emos.offset]))
            mu[mask] = m
            sigma[mask] = s
            nu[mask] = v
            offset[mask] = emos.offset
            benchmark[mask] = bench
        if np.isnan(mu).any():
            missing = table.issue_years[np.isnan(mu)]
            raise InputError(f"horizon '{h.name}': no fold model covers years {sorted(set(missing))}")
        out[h.name] = PredictedParams(mu, sigma, nu, offset, benchmark)
    return out


def forecast_rows(models: TrainedModels, tables, predictions) -> list[list]:
    """Rows for the forecast CSV: quantiles plus distribution parameters."""
    rows = []
    for h in models.horizons:
        table = tables[h.name]
        pred = predictions[h.name]
        q = pred.quantiles(QUANTILE_COLUMNS)
        for i in range(len(table)):
            rows.append(
                [str(table.issue_dates[i]), h.name]
                + [float(q[i, j]) for j in range(len(QUANTILE_COLUMNS))]
                + [float(pred.nu[i]), float(pred.mu[i]), float(pred.sigma[i]), float(pred.offset[i])]
            )
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
    reliability_levels=None,
) -> VerificationReport:
    """Score EMOS, benchmark and (optionally) raw precip forecasts against climatology.

    Every case is scored against the fair CRPS of its month's climatological
    sample (``climatology_scores``: forecast year and successor excluded);
    skill reports are produced per horizon, plus season and NAO strata for the
    calibrated forecasts.  The observations come from ``tables``;
    ``reanalysis`` only switches the precipitation scores on.
    """
    report = VerificationReport()

    def add(rep: SkillReport | None, variable: str):
        if rep is not None:
            report.skill.append((variable, rep))

    for h in models.horizons:
        table = tables[h.name]
        pred = predictions[h.name]
        clim_scores = climatology_scores(table, table.obs_inflow, fair_crps_sample, min_clim_years)
        idx = np.flatnonzero(~np.isnan(clim_scores))
        if len(idx) >= min_cases:
            emos_scores = crps_zaga_batch(
                pred.mu[idx],
                pred.sigma[idx],
                pred.nu[idx],
                pred.offset[idx],
                table.obs_inflow[idx],
            )
            bench_scores = fair_crps_many(pred.benchmark[idx], table.obs_inflow[idx])
            cs = clim_scores[idx]
            add(
                skill_report(emos_scores, cs, h.name, "all", n_boot=n_boot, seed=seed, min_cases=min_cases),
                "inflow_emos",
            )
            add(
                skill_report(bench_scores, cs, h.name, "all", n_boot=n_boot, seed=seed, min_cases=min_cases),
                "inflow_benchmark",
            )

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
                add(
                    skill_report(
                        emos_scores[smask], cs[smask], h.name, label, n_boot=n_boot, seed=seed, min_cases=min_cases
                    ),
                    "inflow_emos",
                )

            # reliability of the calibrated forecasts
            levels = reliability_levels if reliability_levels is not None else np.round(np.arange(0.05, 0.951, 0.05), 2)
            if len(idx) >= 50:
                sub = PredictedParams(
                    pred.mu[idx], pred.sigma[idx], pred.nu[idx], pred.offset[idx], pred.benchmark[idx]
                )
                report.reliability[h.name] = reliability_diagram(
                    table.obs_inflow[idx], sub.quantiles(levels), levels
                )

        # raw ensemble precipitation skill against reanalysis
        if reanalysis is not None:
            p_clim = climatology_scores(table, table.obs_precip, fair_crps_sample, min_clim_years)
            pidx = np.flatnonzero(~np.isnan(p_clim))
            if len(pidx) >= min_cases:
                precip_scores = fair_crps_many(table.member_matrix[pidx], table.obs_precip[pidx])
                add(
                    skill_report(
                        precip_scores, p_clim[pidx], h.name, "all", n_boot=n_boot, seed=seed, min_cases=min_cases
                    ),
                    "precip_ensemble",
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
    seed: int = 0


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
        table, pred = tables[h.name], predictions[h.name]
        medians = climatology_scores(table, table.obs_inflow, lambda sample, _: np.median(sample), min_clim_years)
        keep = np.flatnonzero(medians > 0)
        parts.append(
            (
                table.issue_dates[keep],
                np.full(len(keep), h.name),
                table.obs_inflow[keep],
                medians[keep],
                pred.quantiles([0.5])[keep, 0],
                np.full(len(keep), settings.energy_per_inflow_day * h.n_days),
                *(column[keep] for column in (pred.mu, pred.sigma, pred.nu, pred.offset)),
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
