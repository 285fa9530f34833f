"""Forecast verification: fair CRPS, skill scores, reliability and bootstrap spread."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import HorizonSpec, NaoIndex
from .errors import InputError, NumericalError
from .zaga import ZagaDistribution, gamma_cdf, gammaln

SKILL_FAIR = 0.15
SKILL_GOOD = 0.30

# ---------------------------------------------------------------------------
# ensemble (fair) CRPS
# ---------------------------------------------------------------------------


def fair_crps(members, observation: float) -> float:
    """Ferro's fair CRPS of a finite ensemble against a scalar observation.

    mean_k |x_k - y|  -  (1 / (2 K (K-1))) * sum_{k != j} |x_k - x_j|
    """
    x = np.asarray(members, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise InputError("fair CRPS needs at least 2 ensemble members")
    return float(fair_crps_many(x[None, :], np.array([observation]))[0])


def fair_crps_many(members: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Vectorised fair CRPS for (N, K) ensembles against (N,) observations."""
    x = np.asarray(members, dtype=float)
    y = np.asarray(observations, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise InputError("fair CRPS needs (N, K>=2) ensembles")
    k = x.shape[1]
    term1 = np.abs(x - y[:, None]).mean(axis=1)
    srt = np.sort(x, axis=1)
    weights = 2.0 * np.arange(k) - (k - 1)
    pair_sum = (srt * weights).sum(axis=1)  # sum over ordered pairs of positive gaps
    return term1 - pair_sum / (k * (k - 1))


def fair_crps_sample(sample: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Fair CRPS of one fixed ensemble (e.g. a climatology sample) against many observations."""
    x = np.sort(np.asarray(sample, dtype=float))
    y = np.asarray(observations, dtype=float)
    k = len(x)
    if k < 2:
        raise InputError("fair CRPS needs at least 2 ensemble members")
    term1 = np.abs(x[None, :] - y[:, None]).mean(axis=1)
    weights = 2.0 * np.arange(k) - (k - 1)
    dispersion = float((x * weights).sum()) / (k * (k - 1))
    return term1 - dispersion


# ---------------------------------------------------------------------------
# parametric CRPS in closed form
# ---------------------------------------------------------------------------


def crps_zaga_batch(dist: ZagaDistribution, observations) -> np.ndarray:
    """Exact CRPS of zero-adjusted gamma forecasts, ``E|Y - z| - E|Y - Y'| / 2``.

    On the internal axis z = observation + offset, Y is 0 with probability nu
    and X ~ Gamma(a, theta) otherwise, with a the shape and theta the scale of
    ``dist`` (a * theta = mu).  For z >= 0 (Gneiting & Raftery 2007;
    Scheuerer & Moeller 2015)

        E|X - z|      = z (2 G_a(z) - 1) - mu (2 G_{a+1}(z) - 1)
        E|X - X'| / 2 = theta / B(1/2, a)

    with G_k the Gamma(k, theta) CDF, and E|X - z| = mu - z below zero.  The
    point mass adds nu |z| to the first term and nu (1 - nu) mu to the
    second, so for z <= 0 the score is -z + (1 - nu)^2 (mu - theta / B(1/2, a)).
    Scores are reported in the user-facing (shifted) space, which leaves
    CRPS unchanged.
    """
    mu, nu, offset, shape, scale, y = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (dist.mu, dist.nu, dist.offset, dist.shape, dist.scale, observations))
    )
    z = y + offset
    zp = np.maximum(z, 0.0)
    abs_x = zp * (2.0 * gamma_cdf(zp, shape, scale) - 1.0) - mu * (2.0 * gamma_cdf(zp, shape + 1.0, scale) - 1.0)
    half_pair = scale * np.exp(gammaln(shape + 0.5) - gammaln(shape) - gammaln(0.5))
    w = 1.0 - nu
    return nu * np.abs(z) + w * (abs_x + zp - z) - w * nu * mu - w**2 * half_pair


def crps_parametric(dist: ZagaDistribution, observation: float) -> float:
    """CRPS of a single zero-adjusted gamma forecast (shifted space observation)."""
    return float(crps_zaga_batch(dist, np.array([observation]))[0])


# ---------------------------------------------------------------------------
# skill scores
# ---------------------------------------------------------------------------


def fcrpss(forecast_scores, climatology_scores, min_pairs: int = 20) -> float:
    """1 - mean(forecast CRPS) / mean(climatology fair CRPS), over paired cases."""
    f = np.asarray(forecast_scores, dtype=float)
    c = np.asarray(climatology_scores, dtype=float)
    if f.shape != c.shape or f.ndim != 1:
        raise InputError("forecast and climatology scores must be aligned 1-D arrays")
    if len(f) < min_pairs:
        raise InputError(f"{len(f)} scored pairs is below the minimum of {min_pairs}")
    denom = float(c.mean())
    if denom <= 0:
        raise NumericalError("climatology CRPS is zero; skill score undefined")
    return 1.0 - float(f.mean()) / denom


def classify_skill(score: float) -> str:
    """Skill class bands: <=0 none, (0, 0.15) fair, [0.15, 0.30] good, > 0.30 very good."""
    if not np.isfinite(score):
        raise InputError("skill score must be finite")
    if score <= 0.0:
        return "none"
    if score < SKILL_FAIR:
        return "fair"
    if score <= SKILL_GOOD:
        return "good"
    return "very good"


# ---------------------------------------------------------------------------
# reliability
# ---------------------------------------------------------------------------

DEFAULT_LEVELS = np.round(np.arange(0.05, 0.951, 0.05), 2)
RELIABILITY_MIN_CASES = 50


@dataclass(frozen=True)
class ReliabilityDiagram:
    levels: np.ndarray
    coverage: np.ndarray
    n_cases: int


def reliability_diagram(observations, quantiles, levels=DEFAULT_LEVELS) -> ReliabilityDiagram:
    """Empirical coverage of predictive quantiles: share of observations <= Q(level)."""
    y = np.asarray(observations, dtype=float)
    q = np.asarray(quantiles, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if q.shape != (len(y), len(levels)):
        raise InputError("quantiles must have shape (n_cases, n_levels)")
    if len(y) < RELIABILITY_MIN_CASES:
        raise InputError(f"{len(y)} cases is below the minimum of {RELIABILITY_MIN_CASES}")
    coverage = (y[:, None] <= q).mean(axis=0)
    return ReliabilityDiagram(levels=levels, coverage=coverage, n_cases=len(y))


def randomized_pit(mu, sigma, nu, offset, observations, rng: np.random.Generator) -> np.ndarray:
    """Probability integral transform with the zero atom randomised uniformly."""
    dist = ZagaDistribution(*(np.asarray(x, dtype=float) for x in (mu, sigma, nu, offset)))
    z = np.asarray(observations, dtype=float) + dist.offset
    atom = rng.random(size=np.shape(z)) * dist.nu
    return np.where(z <= 0.0, atom, dist.cdf(observations))


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------

EXTENDED_SUMMER = (4, 5, 6, 7, 8, 9)  # April..September; winter is the complement
NAO_THRESHOLD = 0.4  # a month's NAO phase is positive above it, negative below its negative


def majority_month(issue_date, horizon: HorizonSpec) -> tuple[int, int]:
    """(year, month) containing the majority of the horizon's days; ties pick the earlier month."""
    start, end = horizon.window(issue_date)
    days = np.arange(start, end + np.timedelta64(1, "D"))
    months = days.astype("datetime64[M]")
    uniq, counts = np.unique(months, return_counts=True)
    best = uniq[np.argmax(counts)]  # first maximum = earliest month
    year = int(best.astype("datetime64[Y]").astype(int)) + 1970
    month = int((best - best.astype("datetime64[Y]")) / np.timedelta64(1, "M")) + 1
    return year, month


def season_of_month(month: int) -> str:
    return "summer" if month in EXTENDED_SUMMER else "winter"


def _majority_months(issue_dates, horizon: HorizonSpec) -> np.ndarray:
    """``majority_month`` of every issue, as months since 1970-01."""
    first_day = np.asarray(issue_dates, dtype="datetime64[D]") + np.timedelta64(horizon.start_day, "D")
    months = (first_day[:, None] + np.arange(horizon.n_days)).astype("datetime64[M]").astype(np.int64)
    offsets = months - months[:, :1]  # a window spans consecutive months 0, 1, ...
    counts = (offsets[:, :, None] == np.arange(offsets.max(initial=0) + 1)).sum(axis=1)
    return months[:, 0] + counts.argmax(axis=1)  # first maximum = earliest month


def stratum_mask(
    issue_dates,
    horizon: HorizonSpec,
    season: str = "all",
    nao_condition: str = "any",
    nao: NaoIndex | None = None,
) -> np.ndarray:
    """Boolean case filter by extended season and/or monthly NAO phase.

    Both filters use the calendar month holding the majority of the horizon
    days.  Cases without an NAO value for that month are excluded whenever an
    NAO condition is requested.
    """
    if season not in ("all", "summer", "winter"):
        raise InputError(f"unknown season filter {season!r}")
    if nao_condition not in ("any", "positive", "negative"):
        raise InputError(f"unknown NAO condition {nao_condition!r}")
    if nao_condition != "any" and nao is None:
        raise InputError("an NAO index series is required for NAO stratification")
    months = _majority_months(issue_dates, horizon)
    mask = np.ones(len(months), dtype=bool)
    if season != "all":
        mask &= np.isin(months % 12 + 1, EXTENDED_SUMMER) == (season == "summer")
    if nao_condition != "any":
        uniq, inverse = np.unique(months, return_inverse=True)
        values = [nao.value(int(m) // 12 + 1970, int(m) % 12 + 1) for m in uniq]
        value = np.array([np.nan if v is None else v for v in values], dtype=float)[inverse]
        mask &= value > NAO_THRESHOLD if nao_condition == "positive" else value < -NAO_THRESHOLD
    return mask


# ---------------------------------------------------------------------------
# bootstrap spread and skill reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapResult:
    estimate: float
    se: float
    lower: float  # estimate - 2 SE
    upper: float  # estimate + 2 SE
    n_boot: int


_BLOCK_DRAWS = 1 << 16  # case draws per block of replicates: 512 KB of indices and of each gathered column


def replicate_sums(columns, n_boot: int, rng: np.random.Generator) -> np.ndarray:
    """Sums of the ``(n, k)`` columns over ``n_boot`` case resamples, as an ``(n_boot, k)`` array.

    Replicate r sums the rows ``rng.integers(0, n, size=(n_boot, n))[r]``.
    The indices are drawn a block of replicates at a time, which takes the
    same numbers from ``rng`` as that one call, so memory stays flat in
    ``n_boot``.  Each replicate sum of a column is ``column[rows].sum()``,
    bit for bit.  Every bootstrap statistic here is a ratio of such sums;
    this is the paired case bootstrap of Efron & Tibshirani (1993).
    """
    cols = np.array(np.asarray(columns, dtype=float).T, order="C")  # one contiguous row per column
    n = cols.shape[1]
    out = np.empty((n_boot, len(cols)))
    per_block = max(1, _BLOCK_DRAWS // max(n, 1))
    for start in range(0, n_boot, per_block):
        rows = rng.integers(0, n, size=(min(per_block, n_boot - start), n))
        for j, col in enumerate(cols):
            out[start : start + len(rows), j] = col[rows].sum(axis=1)
    return out


def bootstrap_spread(
    forecast_scores, climatology_scores, n_boot: int = 1000, seed: int = 0, min_cases: int = 20
) -> list[BootstrapResult]:
    """fCRPSS of each forecast against the paired climatology scores, with a +/- 2 SE bootstrap band.

    ``forecast_scores`` is one ``(n,)`` column or ``(n, m)`` columns; every
    forecast is resampled with the same case draws.  A replicate's fCRPSS is
    1 - sum(f) / sum(c), NaN where sum(c) is not positive.  Returns one
    ``BootstrapResult`` per forecast.
    """
    scores = np.column_stack([forecast_scores, climatology_scores]).astype(float, copy=False)
    n = len(scores)
    if n < min_cases:
        raise InputError(f"{n} cases is below the bootstrap minimum of {min_cases}")

    def skill(sums):  # 1 - sum(f) / sum(c) over the last axis
        clim = sums[..., -1:]
        return 1.0 - sums[..., :-1] / np.where(clim > 0, clim, np.nan)

    est = skill(scores.sum(axis=0))
    reps = skill(replicate_sums(scores, n_boot, np.random.default_rng(seed)))
    se = [float(r.std(ddof=1)) for r in reps.T]  # one column at a time: the same bits as a lone forecast's
    return [BootstrapResult(float(e), s, float(e - 2 * s), float(e + 2 * s), n_boot) for e, s in zip(est, se)]


@dataclass(frozen=True)
class SkillReport:
    horizon: str
    stratum: str
    fcrpss: float
    se: float
    spread: float  # 2 SE
    skill_class: str
    n_cases: int
    spread_method: str = "bootstrap_2se"

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "stratum": self.stratum,
            "fcrpss": self.fcrpss,
            "se": self.se,
            "spread": self.spread,
            "skill_class": self.skill_class,
            "n_cases": self.n_cases,
            "spread_method": self.spread_method,
        }


def skill_report(
    forecasts: dict,
    climatology_scores,
    horizon: str,
    stratum: str = "all",
    n_boot: int = 1000,
    seed: int = 0,
    min_cases: int = 20,
) -> list[tuple[str, SkillReport]]:
    """(variable, report) per forecast: fCRPSS with a paired case bootstrap band; [] when understaffed.

    ``forecasts`` maps variable names to score arrays aligned with
    ``climatology_scores``; they share one set of bootstrap draws.
    """
    c = np.asarray(climatology_scores, dtype=float)
    if len(c) < min_cases:
        return []
    scores = {variable: fcrpss(f, c, min_pairs=min_cases) for variable, f in forecasts.items()}
    boots = bootstrap_spread(np.column_stack(list(forecasts.values())), c, n_boot=n_boot, seed=seed, min_cases=min_cases)
    return [
        (
            variable,
            SkillReport(
                horizon=horizon,
                stratum=stratum,
                fcrpss=score,
                se=boot.se,
                spread=2 * boot.se,
                skill_class=classify_skill(score),
                n_cases=len(c),
            ),
        )
        for (variable, score), boot in zip(scores.items(), boots)
    ]
