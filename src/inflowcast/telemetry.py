"""Reservoir telemetry cleaning and net-inflow reconstruction.

The observed net inflow is rebuilt from hourly water-level and power records:
turbine discharge is derived from power through operator-supplied efficiency
and net-head curves, the storage curve maps level to volume whose time
derivative captures the change in stored water, and documented compensation
flows are added on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CurveDomainError, InputError
from .series import DailySeries, InflowSeries

WATER_DENSITY = 1000.0  # kg/m3
GRAVITY = 9.81  # m/s2
MIN_COVERAGE = 0.8  # share of a day's hourly samples its daily mean needs


# ---------------------------------------------------------------------------
# telemetry containers and cleaning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetrySeries:
    """Time-ordered reservoir telemetry: water level (m) and power output (W)."""

    timestamps: np.ndarray  # datetime64[s], strictly increasing
    water_level: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype="datetime64[s]"))
        object.__setattr__(self, "water_level", np.asarray(self.water_level, dtype=float))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        n = len(self.timestamps)
        if n == 0:
            raise InputError("empty telemetry record")
        if len(self.water_level) != n or len(self.power) != n:
            raise InputError("telemetry arrays must have equal length")
        if np.any(np.diff(self.timestamps) <= np.timedelta64(0, "s")):
            raise InputError("telemetry timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class CleaningLimits:
    """Physical bounds and maximum per-hour derivatives used to flag bad records."""

    level_bounds: tuple[float, float]
    power_bounds: tuple[float, float]
    max_level_step: float  # m per hour
    max_power_step: float  # W per hour

    def __post_init__(self):
        # each condition is written so that NaN fails it
        if not self.level_bounds[0] < self.level_bounds[1]:
            raise InputError("level bounds must be an increasing pair")
        if not self.power_bounds[0] < self.power_bounds[1]:
            raise InputError("power bounds must be an increasing pair")
        if not (self.max_level_step > 0 and self.max_power_step > 0):
            raise InputError("derivative thresholds must be positive")


@dataclass
class CleaningReport:
    n_input: int
    removed_indices: list[int] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)  # "bound:<field>" or "spike:<field>"

    @property
    def n_removed(self) -> int:
        return len(self.removed_indices)

    @property
    def fraction_removed(self) -> float:
        return self.n_removed / self.n_input if self.n_input else 0.0

    @property
    def excessive_removal(self) -> bool:
        """More than half the record was discarded, which usually means mis-set thresholds."""
        return self.fraction_removed > 0.5

    def to_dict(self) -> dict:
        return {
            "n_input": self.n_input,
            "n_removed": self.n_removed,
            "fraction_removed": self.fraction_removed,
            "excessive_removal": self.excessive_removal,
            "removed": [
                {"index": int(i), "reason": r}
                for i, r in zip(self.removed_indices, self.reasons)
            ],
        }


def clean_telemetry(telemetry: TelemetrySeries, limits: CleaningLimits):
    """Drop records outside physical bounds or with spiking derivatives.

    Derivatives are evaluated against the last surviving record, so an
    isolated spike removes only itself and cleaning is idempotent.

    Returns
    -------
    (TelemetrySeries, CleaningReport)
    """
    n = len(telemetry)
    keep = np.ones(n, dtype=bool)
    report = CleaningReport(n_input=n)

    lo_l, hi_l = limits.level_bounds
    lo_p, hi_p = limits.power_bounds
    level, power = telemetry.water_level, telemetry.power
    t_hours = telemetry.timestamps.astype("int64") / 3600.0

    bad_level = (level < lo_l) | (level > hi_l) | ~np.isfinite(level)
    bad_power = (power < lo_p) | (power > hi_p) | ~np.isfinite(power)

    last_good = -1
    for i in range(n):
        if bad_level[i] or bad_power[i]:
            keep[i] = False
            field_name = "water_level" if bad_level[i] else "power"
            report.removed_indices.append(i)
            report.reasons.append(f"bound:{field_name}")
            continue
        if last_good >= 0:
            dt_h = t_hours[i] - t_hours[last_good]
            if abs(level[i] - level[last_good]) / dt_h > limits.max_level_step:
                keep[i] = False
                report.removed_indices.append(i)
                report.reasons.append("spike:water_level")
                continue
            if abs(power[i] - power[last_good]) / dt_h > limits.max_power_step:
                keep[i] = False
                report.removed_indices.append(i)
                report.reasons.append("spike:power")
                continue
        last_good = i

    if not keep.any():
        raise InputError("cleaning removed every telemetry record")
    cleaned = TelemetrySeries(
        telemetry.timestamps[keep], telemetry.water_level[keep], telemetry.power[keep]
    )
    return cleaned, report


# ---------------------------------------------------------------------------
# plant curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridTable:
    """Bilinear lookup on a rectangular (power, level) grid; no extrapolation."""

    power_axis: np.ndarray
    level_axis: np.ndarray
    values: np.ndarray  # shape (len(power_axis), len(level_axis))

    def __post_init__(self):
        object.__setattr__(self, "power_axis", np.asarray(self.power_axis, dtype=float))
        object.__setattr__(self, "level_axis", np.asarray(self.level_axis, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if min(len(self.power_axis), len(self.level_axis)) < 2:
            shape = f"{len(self.power_axis)} x {len(self.level_axis)}"
            raise InputError(f"grid needs at least 2 points on each axis, got {shape} (power x level)")
        if np.any(np.diff(self.power_axis) <= 0) or np.any(np.diff(self.level_axis) <= 0):
            raise InputError("grid axes must be strictly increasing")
        if self.values.shape != (len(self.power_axis), len(self.level_axis)):
            raise InputError("grid values shape does not match axes")

    def lookup_many(self, power, level):
        """Vectorised bilinear interpolation; returns (values, in_domain_mask)."""
        power = np.asarray(power, dtype=float)
        level = np.asarray(level, dtype=float)
        ok = (
            (power >= self.power_axis[0])
            & (power <= self.power_axis[-1])
            & (level >= self.level_axis[0])
            & (level <= self.level_axis[-1])
        )
        p = np.clip(power, self.power_axis[0], self.power_axis[-1])
        l = np.clip(level, self.level_axis[0], self.level_axis[-1])
        ip = np.clip(np.searchsorted(self.power_axis, p, side="right") - 1, 0, len(self.power_axis) - 2)
        il = np.clip(np.searchsorted(self.level_axis, l, side="right") - 1, 0, len(self.level_axis) - 2)
        fp = (p - self.power_axis[ip]) / (self.power_axis[ip + 1] - self.power_axis[ip])
        fl = (l - self.level_axis[il]) / (self.level_axis[il + 1] - self.level_axis[il])
        v00 = self.values[ip, il]
        v10 = self.values[ip + 1, il]
        v01 = self.values[ip, il + 1]
        v11 = self.values[ip + 1, il + 1]
        vals = (
            v00 * (1 - fp) * (1 - fl)
            + v10 * fp * (1 - fl)
            + v01 * (1 - fp) * fl
            + v11 * fp * fl
        )
        return vals, ok

    def lookup(self, power: float, level: float) -> float:
        vals, ok = self.lookup_many(power, level)
        if not np.all(ok):
            raise CurveDomainError(
                f"(power={power!r}, level={level!r}) outside tabulated curve domain"
            )
        return float(vals)


@dataclass(frozen=True)
class StorageCurve:
    """Strictly increasing level -> stored volume (m3) relation."""

    level_axis: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "level_axis", np.asarray(self.level_axis, dtype=float))
        object.__setattr__(self, "volume", np.asarray(self.volume, dtype=float))
        if len(self.level_axis) < 2:
            raise InputError(f"storage curve needs at least 2 points, got {len(self.level_axis)}")
        if np.any(np.diff(self.level_axis) <= 0) or np.any(np.diff(self.volume) <= 0):
            raise InputError("storage curve must be strictly increasing")

    def volume_at(self, level):
        level = np.asarray(level, dtype=float)
        ok = (level >= self.level_axis[0]) & (level <= self.level_axis[-1])
        return np.interp(level, self.level_axis, self.volume), ok

    def level_at_volume(self, vol):
        vol = np.asarray(vol, dtype=float)
        if np.any((vol < self.volume[0]) | (vol > self.volume[-1])):
            raise CurveDomainError("volume outside tabulated storage curve")
        return np.interp(vol, self.volume, self.level_axis)


@dataclass(frozen=True)
class PlantCurves:
    """Operator-supplied efficiency, net-head and storage tables."""

    efficiency: GridTable
    net_head: GridTable
    storage: StorageCurve


@dataclass(frozen=True)
class CompensationSchedule:
    """Piecewise-constant legally required release (m3/s) by date range (end inclusive)."""

    starts: np.ndarray  # datetime64[D]
    ends: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "starts", np.asarray(self.starts, dtype="datetime64[D]"))
        object.__setattr__(self, "ends", np.asarray(self.ends, dtype="datetime64[D]"))
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))
        if not (len(self.starts) == len(self.ends) == len(self.rates)):
            raise InputError("compensation schedule arrays must have equal length")
        if np.any(self.rates < 0):
            raise InputError("compensation rates must be >= 0")
        order = np.argsort(self.starts)
        object.__setattr__(self, "starts", self.starts[order])
        object.__setattr__(self, "ends", self.ends[order])
        object.__setattr__(self, "rates", self.rates[order])
        if np.any(self.ends < self.starts):
            raise InputError("compensation range ends before it starts")
        if np.any(self.starts[1:] <= self.ends[:-1]):
            raise InputError("compensation date ranges overlap")

    def rate_at(self, timestamps) -> np.ndarray:
        days = np.asarray(timestamps, dtype="datetime64[D]")
        idx = np.searchsorted(self.starts, days, side="right") - 1
        out_of_range = (idx < 0) | (days > self.ends[np.clip(idx, 0, len(self.ends) - 1)])
        if np.any(out_of_range):
            first = days[np.argmax(out_of_range)]
            raise InputError(f"no compensation flow documented for {first}")
        return self.rates[idx]


def constant_compensation(start, end, rate: float) -> CompensationSchedule:
    return CompensationSchedule(np.array([start], "datetime64[D]"), np.array([end], "datetime64[D]"), [rate])


# ---------------------------------------------------------------------------
# discharge and net inflow
# ---------------------------------------------------------------------------


def compute_discharge(power, efficiency, head):
    """Turbine discharge (m3/s) from power (W), efficiency (0,1] and net head (m)."""
    power = np.asarray(power, dtype=float)
    efficiency = np.asarray(efficiency, dtype=float)
    head = np.asarray(head, dtype=float)
    if np.any(power < 0):
        raise ValueError("power must be >= 0")
    if np.any((efficiency <= 0) | (efficiency > 1)):
        raise ValueError("efficiency must lie in (0, 1]")
    if np.any(head <= 0):
        raise ValueError("net head must be positive")
    q = power / (efficiency * WATER_DENSITY * GRAVITY * head)
    if power.ndim == 0:
        return float(q)
    return q


@dataclass
class InflowReconstruction:
    timestamps: np.ndarray  # datetime64[s]
    values: np.ndarray  # m3/s
    skipped_indices: list[int]
    skipped_reasons: list[str]

    def to_report(self) -> dict:
        return {
            "n_output": len(self.values),
            "n_skipped": len(self.skipped_indices),
            "skipped": [
                {"index": int(i), "reason": r}
                for i, r in zip(self.skipped_indices, self.skipped_reasons)
            ],
        }


def reconstruct_net_inflow(
    telemetry: TelemetrySeries,
    curves: PlantCurves,
    compensation: CompensationSchedule,
) -> InflowReconstruction:
    """Net inflow = discharge + d(volume)/dt + compensation, per telemetry record.

    The volume derivative uses central differences on the storage-mapped
    level (one-sided second-order stencils at the record edges).  Records
    whose (power, level) point falls outside a curve domain are skipped and
    reported; records whose level is outside the storage curve cannot
    contribute a volume and are likewise skipped.
    """
    level = telemetry.water_level
    power = telemetry.power

    vol, vol_ok = curves.storage.volume_at(level)
    if not vol_ok.any():
        raise InputError("no telemetry level falls inside the storage curve domain")

    # discharge: zero-power records bypass the efficiency/head lookup
    eff, eff_ok = curves.efficiency.lookup_many(power, level)
    head, head_ok = curves.net_head.lookup_many(power, level)
    running = power > 0
    curve_ok = (~running) | (eff_ok & head_ok & (eff > 0) & (eff <= 1) & (head > 0))

    discharge = np.zeros_like(power)
    use = running & curve_ok
    discharge[use] = compute_discharge(power[use], eff[use], head[use])  # curve_ok meets its preconditions

    # volume derivative on the sub-series with valid volumes
    dvdt = np.full(len(telemetry), np.nan)
    idx_vol = np.flatnonzero(vol_ok)
    if len(idx_vol) >= 2:  # a lone volume has no derivative
        t_sec = telemetry.timestamps[idx_vol].astype("int64").astype(float)
        dvdt[idx_vol] = np.gradient(vol[idx_vol], t_sec, edge_order=min(len(idx_vol) - 1, 2))
    comp = compensation.rate_at(telemetry.timestamps)

    good = vol_ok & curve_ok & np.isfinite(dvdt)
    skipped = np.flatnonzero(~good)
    reasons = []
    for i in skipped:
        if not vol_ok[i]:
            reasons.append("storage_domain")
        elif not curve_ok[i]:
            reasons.append("curve_domain")
        else:
            reasons.append("isolated_volume")

    values = discharge[good] + dvdt[good] + comp[good]
    return InflowReconstruction(
        timestamps=telemetry.timestamps[good],
        values=values,
        skipped_indices=[int(i) for i in skipped],
        skipped_reasons=reasons,
    )


def aggregate_and_normalize(timestamps, values) -> InflowSeries:
    """Daily means of an hourly inflow series, normalised by the record mean.

    Days with less than ``MIN_COVERAGE`` of their 24 hourly samples are
    dropped rather than averaged from partial data.
    """
    timestamps = np.asarray(timestamps, dtype="datetime64[s]")
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise InputError("empty inflow series")
    days = timestamps.astype("datetime64[D]")
    uniq, inverse, counts = np.unique(days, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=values)
    means = sums / counts
    full = counts >= MIN_COVERAGE * 24
    if not full.any():
        raise InputError("no aggregation window reaches the required coverage")
    dates = uniq[full]
    means = means[full]
    norm = float(means.mean())
    if norm <= 0:
        raise InputError("record-mean inflow is not positive; cannot normalise")
    return InflowSeries(dates, means / norm, normalization_constant=norm)


# ---------------------------------------------------------------------------
# cross correlation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossCorrelation:
    lags: np.ndarray
    correlations: np.ndarray  # NaN where undefined
    best_lag: int

    def correlation_at(self, lag: int) -> float:
        i = int(np.flatnonzero(self.lags == lag)[0])
        return float(self.correlations[i])


def cross_correlation(a: DailySeries, b: DailySeries, lags, min_overlap: int = 30) -> CrossCorrelation:
    """Pearson correlation of a shifted by each lag against b on their date overlap.

    At lag L the pairing is (a on day t+L, b on day t), so negative lags
    measure how past values of ``a`` relate to present values of ``b``.
    Ties in the peak prefer lag 0, then smaller absolute lag, then the
    negative lag of a tied pair.
    """
    lags = np.asarray(sorted(int(l) for l in lags))
    corrs = np.full(len(lags), np.nan)
    for i, lag in enumerate(lags):
        shifted = b.dates + np.timedelta64(int(lag), "D")
        common, ia, ib = np.intersect1d(a.dates, shifted, return_indices=True)
        if len(common) < min_overlap:
            raise InputError(f"lag {lag}: overlap of {len(common)} samples is below {min_overlap}")
        x = a.values[ia]
        y = b.values[ib]
        sx = x.std()
        sy = y.std()
        if sx == 0 or sy == 0:
            continue  # undefined correlation stays NaN
        corrs[i] = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))

    finite = np.isfinite(corrs)
    if not finite.any():
        raise InputError("correlation undefined at every lag")
    best = np.nanmax(corrs)
    candidates = [int(l) for l, c in zip(lags, corrs) if np.isfinite(c) and c >= best - 1e-12]
    best_lag = min(candidates, key=lambda l: (abs(l), l > 0))
    return CrossCorrelation(lags=lags, correlations=corrs, best_lag=best_lag)
