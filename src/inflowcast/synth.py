"""Synthetic truth / ensemble / inflow scenarios with controllable skill decay.

Daily precipitation follows a gamma process with a sinusoidal seasonal mean.
Ensemble members share a gamma-distributed component with the truth whose
weight decays with lead time, w(d) = 2^(-d / half_life): the shared part is
carved out of the realised truth by beta thinning, so every member keeps the
exact climatological gamma marginal while its correlation with the truth is
exactly w(d).  Inflow responds linearly to precipitation with additive noise
and a constant negative drift standing in for evaporation losses, which makes
negative inflows constructible.

A companion forward simulator produces reservoir telemetry (level, power)
whose exact reconstruction recovers a prescribed net inflow, for end-to-end
ingest tests.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import EnsemblePrecipForecast, NaoIndex
from .errors import InputError
from .series import DailySeries, InflowSeries
from .telemetry import (
    CompensationSchedule,
    GridTable,
    PlantCurves,
    StorageCurve,
    TelemetrySeries,
    compute_discharge,
    constant_compensation,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for the synthetic dataset.

    ``skill_half_life`` sets the lead time at which the member-truth
    correlation halves, conditional on the seasonal state: with a non-zero
    seasonal amplitude the raw cross-year correlation sits above the target
    because member and truth share the climatological cycle.
    """

    n_years: int = 10
    start_year: int = 2009
    n_members: int = 11
    lead_days: int = 46
    precip_shape: ClassVar[float] = 0.9  # gamma shape of the daily marginal
    precip_mean: ClassVar[float] = 5.0  # annual-mean rate, mm/day
    seasonal_amplitude: float = 0.5  # fractional swing of the seasonal mean
    response_slope: ClassVar[float] = 0.16  # inflow units per mm/day
    response_intercept: ClassVar[float] = 0.25
    noise_sd: float = 0.08
    drift: float = 0.12  # constant inflow loss (evaporation proxy)
    skill_half_life: float | None = 10.0  # lead days; None = perfect members
    marginal: str = "gamma"  # "lognormal" mis-specifies the calibration family
    seed: int = 0

    def __post_init__(self):
        if self.n_members < 2:
            raise InputError("scenario needs at least 2 ensemble members")
        if self.skill_half_life is not None and not self.skill_half_life > 0:  # NaN fails too
            raise InputError("skill half-life must be positive")
        if not self.noise_sd >= 0:
            raise InputError("inflow noise sd must be non-negative")
        if not 0 <= self.seasonal_amplitude < 1:
            raise InputError("seasonal amplitude must lie in [0, 1)")
        if self.marginal not in ("gamma", "lognormal"):
            raise InputError(f"unknown precipitation marginal {self.marginal!r}")


@dataclass
class Scenario:
    config: ScenarioConfig
    precip: DailySeries  # "reanalysis" truth
    inflow: InflowSeries
    forecasts: list[EnsemblePrecipForecast]
    nao: NaoIndex


def member_weight(lead_day, half_life: float | None) -> np.ndarray:
    """Member-truth correlation by lead day: 2^(-d / half_life), or 1 without decay."""
    d = np.asarray(lead_day, dtype=float)
    if half_life is None:
        return np.ones_like(d)
    return np.power(2.0, -d / half_life)


def issue_dates_for(start_year: int, n_years: int) -> list[np.datetime64]:
    """Twice-weekly issues (Mondays and Thursdays) across the scenario years."""
    start = np.datetime64(f"{start_year}-01-01", "D")
    end = np.datetime64(f"{start_year + n_years - 1}-12-31", "D")
    days = np.arange(start, end + np.timedelta64(1, "D"))
    weekday = (days.astype("int64") - 4) % 7  # 0 = Monday
    return list(days[(weekday == 0) | (weekday == 3)])


def _seasonal_mean(dates: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    day_of_year = (dates - dates.astype("datetime64[Y]")) / np.timedelta64(1, "D")
    cycle = np.sin(2.0 * np.pi * day_of_year / 365.25)
    return cfg.precip_mean * (1.0 + cfg.seasonal_amplitude * cycle)


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Deterministic scenario for a given config and seed."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_truth = np.random.default_rng(seeds[0])
    rng_nao = np.random.default_rng(seeds[2])

    issues = issue_dates_for(cfg.start_year, cfg.n_years)
    start = np.datetime64(f"{cfg.start_year}-01-01", "D")
    end = issues[-1] + np.timedelta64(cfg.lead_days, "D")
    dates = np.arange(start, end + np.timedelta64(1, "D"))
    n_days = len(dates)

    shape = cfg.precip_shape
    mean_t = _seasonal_mean(dates, cfg)
    scale = mean_t / shape
    if cfg.marginal == "gamma":
        precip = rng_truth.gamma(shape, scale, size=n_days)
    else:
        # lognormal with the gamma's mean and squared CV, to stress the
        # calibration family with a mis-specified marginal
        s2 = np.log1p(1.0 / shape)
        mu_ln = np.log(mean_t) - 0.5 * s2
        precip = np.exp(mu_ln + np.sqrt(s2) * rng_truth.normal(size=n_days))
    inflow_raw = (
        cfg.response_slope * precip
        + cfg.response_intercept
        - cfg.drift
        + rng_truth.normal(0.0, cfg.noise_sd, size=n_days)
    )
    norm = float(inflow_raw.mean())
    if norm <= 0:
        raise InputError("scenario inflow has non-positive mean; adjust intercept or drift")
    inflow = InflowSeries(dates, inflow_raw / norm, normalization_constant=norm)

    # gamma members share a beta-thinned slice of the realised truth (exact
    # marginal, member-truth correlation exactly w); lognormal members blend
    # log-anomalies instead.  Per-year child seeds keep years independently
    # reproducible.
    leads = np.arange(1, cfg.lead_days + 1)
    weights = member_weight(leads, cfg.skill_half_life)
    a_shared = np.maximum(weights * shape, 1e-12)
    a_idio = np.maximum((1.0 - weights) * shape, 1e-12)
    issue_days = np.array(issues)
    issue_years = issue_days.astype("datetime64[Y]").astype(int) + 1970
    offsets = (issue_days - dates[0]).astype(int)
    size = (cfg.n_members, cfg.lead_days)
    forecasts = []
    for year, seed in enumerate(seeds[1].spawn(cfg.n_years), start=cfg.start_year):
        rng = np.random.default_rng(seed)
        for i in np.flatnonzero(issue_years == year):
            idx = offsets[i] + leads
            truth = precip[idx]
            if cfg.marginal == "gamma":
                slice_frac = rng.beta(a_shared, a_idio)
                shared = np.where(
                    weights >= 1.0, truth, np.where(weights <= 0.0, 0.0, slice_frac * truth)
                )
                members = shared + np.where(weights >= 1.0, 0.0, rng.gamma(a_idio, scale[idx], size=size))
            else:
                s = np.sqrt(s2)
                z_truth = (np.log(truth) - mu_ln[idx]) / s
                blend = np.sqrt(np.maximum(0.0, 1.0 - weights**2))
                members = np.exp(mu_ln[idx] + s * (weights * z_truth + blend * rng.normal(size=size)))
            forecasts.append(EnsemblePrecipForecast(issue_days[i].astype(dt.date), members))

    # AR(1) monthly circulation index, roughly unit variance
    entries = {}
    x = 0.0
    for year in range(cfg.start_year, cfg.start_year + cfg.n_years + 1):
        for month in range(1, 13):
            x = 0.5 * x + rng_nao.normal(0.0, np.sqrt(0.75))
            entries[(year, month)] = x
    nao = NaoIndex(entries)

    return Scenario(
        config=cfg,
        precip=DailySeries(dates, precip),
        inflow=inflow,
        forecasts=forecasts,
        nao=nao,
    )


# ---------------------------------------------------------------------------
# synthetic telemetry (forward reservoir simulation)
# ---------------------------------------------------------------------------


def demo_plant_curves() -> PlantCurves:
    """Small but realistic plant curves for simulations and round-trip tests."""
    power_axis = np.array([0.0, 2e6, 4e6, 6e6, 8e6, 10e6])
    level_axis = np.array([190.0, 195.0, 200.0, 205.0, 210.0])
    eff = 0.84 + 0.004 * np.arange(6)[:, None] + 0.006 * np.arange(5)[None, :]
    head = 95.0 + 2.0 * np.arange(5)[None, :] - 0.8 * np.arange(6)[:, None]
    levels = np.linspace(185.0, 215.0, 61)
    volume = 2.0e7 + (levels - 185.0) * 1.5e6 + (levels - 185.0) ** 2 * 1.0e4
    return PlantCurves(
        efficiency=GridTable(power_axis, level_axis, eff),
        net_head=GridTable(power_axis, level_axis, head),
        storage=StorageCurve(levels, volume),
    )


@dataclass
class SimulatedTelemetry:
    telemetry: TelemetrySeries
    true_inflow: np.ndarray  # m3/s per record
    curves: PlantCurves
    compensation: CompensationSchedule


SIM_START = "2015-01-01T00:00:00"  # the simulated record's first hour
SIM_COMPENSATION_RATE = 1.5  # m3/s, all record long
SIM_POWER_BASE = 5e6  # W, generation at the start and end of each day's run
SIM_POWER_SWING = 3e6  # W, added at the peak of each day's run


def simulate_telemetry(n_hours: int = 24 * 28, storage_rate: float = 4.0, storage_trend: float = 2.0, seed: int = 0) -> SimulatedTelemetry:
    """Forward-simulate level/power telemetry of the demo plant consistent with a known net inflow.

    ``storage_rate`` is the net storage gain at mid-record and ``storage_trend``
    its change across the record, both in m3/s.
    The stored volume follows a quadratic path in time (its rate is linear),
    which the central-difference reconstruction recovers exactly; the inflow
    itself still varies hour by hour because the generation schedule does.
    """
    curves = demo_plant_curves()
    rng = np.random.default_rng(seed)
    t0 = np.datetime64(SIM_START, "s")
    timestamps = t0 + np.arange(n_hours) * np.timedelta64(3600, "s")
    t_sec = np.arange(n_hours) * 3600.0
    span = t_sec[-1] if n_hours > 1 else 1.0

    # daily generation cycle, snapped off at night hours
    hour_of_day = (np.arange(n_hours) % 24).astype(float)
    on = (hour_of_day >= 7) & (hour_of_day < 22)
    power = np.where(on, SIM_POWER_BASE + SIM_POWER_SWING * np.sin(np.pi * (hour_of_day - 7) / 15.0), 0.0)
    power += np.where(on, rng.uniform(-0.2e6, 0.2e6, size=n_hours), 0.0)
    power = np.clip(power, 0.0, curves.efficiency.power_axis[-1])

    # stored volume: quadratic in time -> rate linear in time
    f0 = storage_rate - 0.5 * storage_trend
    v_mid = 0.5 * (curves.storage.volume[0] + curves.storage.volume[-1])
    volume = v_mid + f0 * t_sec + 0.5 * storage_trend * t_sec**2 / span
    level = curves.storage.level_at_volume(volume)

    eff, ok_e = curves.efficiency.lookup_many(power, level)
    head, ok_h = curves.net_head.lookup_many(power, level)
    if not (np.all(ok_e) and np.all(ok_h)):
        raise InputError("simulated operating point left the curve domain; reduce rates")
    discharge = compute_discharge(power, eff, head)

    storage_rate_t = f0 + storage_trend * t_sec / span
    inflow = storage_rate_t + discharge + SIM_COMPENSATION_RATE

    telemetry = TelemetrySeries(timestamps, level, power)
    comp = constant_compensation(
        timestamps[0].astype("datetime64[D]"),
        timestamps[-1].astype("datetime64[D]") + np.timedelta64(1, "D"),
        SIM_COMPENSATION_RATE,
    )
    return SimulatedTelemetry(telemetry=telemetry, true_inflow=inflow, curves=curves, compensation=comp)
