"""Two-stage newsvendor cost model for generation-schedule decisions.

Stage 1 prices a precautionary adjustment A (a signed fraction of the
climatological generation for the horizon): up to +/-20% is free, further
increases sell at the off-peak rate (costing the peak/off-peak differential
per MWh), further decreases store water of which half is later sold off-peak
(half the differential per MWh).  Stage 2 prices the end-of-period deviation
of observed inflow energy from the adjusted discharge, with a free band of
+20% / -50% of climatological generation, the differential per MWh above it,
half the differential below it, and inflow beyond the plant's full-time
capacity spilled at the full peak price.

Within the adjustment range every price term is the differential times a
price-free cost, except spill, which the adjustment cannot change: the
expected cost is ``differential * F(A) + peak * E[spill]``.  The optimal
adjustment is therefore the same at every price, so the price sweep decides
once per case and forecast type and prices every differential from those
decisions.  The cases are one ``CostCases`` table of aligned columns, and
``optimal_adjustments`` decides all of them at once, exactly from the
forecast CDF: F is convex, so its minimiser is a critical-fractile root (a
newsvendor condition).  ``optimal_adjustment`` is the per-case reference: it
evaluates the piecewise-linear objective at every breakpoint of a finite
forecast, a ZAGA forecast being cut into Gauss-Legendre atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .verification import BootstrapResult, replicate_sums
from .zaga import ZagaDistribution, gamma_ppf

FORECAST_TYPES = ("climatological", "deterministic", "probabilistic")


@dataclass(frozen=True)
class PriceConfig:
    """Constant peak price and the peak minus off-peak differential (GBP/MWh).

    ``differential`` may also be a column array, which prices a whole sweep
    of differentials at once.
    """

    peak: float = 50.0
    differential: float = 30.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.peak)):
            raise InputError("peak price must be finite")
        if not np.all(np.asarray(self.differential) > 0):  # NaN fails too
            raise InputError("price differential must be positive")


@dataclass(frozen=True)
class OperatingEnvelope:
    """Free bands, capacity and energy conversion for one forecast horizon.

    ``clim_generation`` is the planned climatological generation over the
    horizon (MWh); ``max_capacity_frac`` is the multiple of it reachable by
    running at full capacity around the clock; ``energy_per_inflow`` converts
    one unit of normalised inflow sustained over the horizon into MWh.
    Any field may be an array with one entry per case, which the stage costs
    accept unchanged; the conditions hold elementwise.
    """

    clim_generation: float
    free_up_frac: float = 0.2
    free_down_frac: float = 0.2
    stage2_up_frac: float = 0.2
    stage2_down_frac: float = 0.5
    max_capacity_frac: float = 2.4
    energy_per_inflow: float = 100.0

    def __post_init__(self):
        # each condition is written so that NaN fails it
        if not np.all(self.clim_generation > 0):
            raise InputError("climatological generation must be positive")
        bands = (self.free_up_frac, self.free_down_frac, self.stage2_up_frac, self.stage2_down_frac)
        if not all(np.all(band > 0) for band in bands):
            raise InputError("free-band fractions must be positive")
        if not np.all(self.max_capacity_frac > 1.0 + self.free_up_frac):
            raise InputError("max capacity must exceed the free stage-1 band")
        if not np.all(self.energy_per_inflow > 0):
            raise InputError("energy conversion must be positive")

    @property
    def a_min(self) -> float:
        return -1.0

    @property
    def a_max(self) -> float:
        return self.max_capacity_frac - 1.0

    @property
    def capacity_energy(self) -> float:
        return self.max_capacity_frac * self.clim_generation

    def inflow_energy(self, inflow) -> np.ndarray:
        """Normalised inflow sustained over the horizon, in MWh."""
        return np.asarray(inflow, dtype=float) * self.energy_per_inflow


@dataclass(frozen=True)
class DiscreteForecast:
    """Finite-outcome inflow forecast (normalised inflow units)."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.values.shape != self.weights.shape or self.values.ndim != 1:
            raise InputError("values and weights must be 1-D arrays of equal length")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise InputError("weights must be non-negative and sum to one")


@dataclass(frozen=True)
class AdjustmentDecision:
    adjustment: float  # signed fraction of climatological generation
    expected_cost: float
    forecast_type: str


@dataclass(frozen=True)
class CostBreakdown:
    stage1: float
    stage2: float

    @property
    def total(self) -> float:
        return self.stage1 + self.stage2


# ---------------------------------------------------------------------------
# stage costs
# ---------------------------------------------------------------------------


def stage1_cost(adjustment, env: OperatingEnvelope, prices: PriceConfig):
    """Cost of adjusting planned generation by a signed fraction of clim generation.

    Adjustments above ``a_max`` cannot be generated at all and are priced as
    spill at the peak rate; the optimiser never proposes them but the cost is
    defined so that out-of-envelope candidates are penalised consistently.
    """
    a = np.asarray(adjustment, dtype=float)
    if np.any(a < env.a_min - 1e-12):
        raise InputError("adjustment below -100% of planned generation")
    c = env.clim_generation
    up = np.maximum(0.0, a - env.free_up_frac)
    beyond_cap = np.maximum(0.0, a - env.a_max)
    down = np.maximum(0.0, -a - env.free_down_frac)
    cost = (
        prices.differential * (up - beyond_cap) * c
        + prices.peak * beyond_cap * c
        + 0.5 * prices.differential * down * c
    )
    if a.ndim == 0:
        return float(cost)
    return cost


def stage2_cost(adjustment, observed_energy, env: OperatingEnvelope, prices: PriceConfig):
    """Cost of the end-of-period deviation between inflow energy and adjusted discharge.

    Inflow beyond the plant's full-time capacity spills and is lost at the
    peak price regardless of the adjustment; the remaining excess above the
    free band sells off-peak, and shortfalls below the lower band cost half
    the differential.
    """
    a = np.asarray(adjustment, dtype=float)
    i_obs = np.asarray(observed_energy, dtype=float)
    c = env.clim_generation
    deviation = i_obs - (1.0 + a) * c
    spill = np.maximum(0.0, i_obs - env.capacity_energy)
    over = np.maximum(0.0, deviation - env.stage2_up_frac * c)
    off_peak_sold = np.maximum(0.0, over - spill)
    under = np.maximum(0.0, -deviation - env.stage2_down_frac * c)
    cost = (
        prices.differential * off_peak_sold
        + prices.peak * spill
        + 0.5 * prices.differential * under
    )
    if cost.ndim == 0:
        return float(cost)
    return cost


# ---------------------------------------------------------------------------
# forecast atoms and expected cost
# ---------------------------------------------------------------------------


_GL_NODES = 256  # Gauss-Legendre nodes of a ZAGA forecast's continuous part


@lru_cache(maxsize=None)
def _gl_nodes():
    from scipy.special import roots_legendre

    x, w = roots_legendre(_GL_NODES)
    u, w = 0.5 * (x + 1.0), 0.5 * w  # mapped to (0, 1)
    u.flags.writeable = w.flags.writeable = False  # shared by every caller
    return u, w


def forecast_atoms(forecast, env: OperatingEnvelope):
    """Represent a forecast as weighted inflow-energy outcomes.

    Point forecasts give one atom; discrete forecasts keep their atoms; a
    zero-adjusted gamma forecast is discretised with Gauss-Legendre nodes in
    probability space for its continuous part plus its zero mass (which sits
    at -offset in inflow units) as an explicit atom.
    """
    if isinstance(forecast, ZagaDistribution):
        u, w = _gl_nodes()
        cont = gamma_ppf(u, forecast.shape, forecast.scale) - forecast.offset
        values = env.inflow_energy(cont)
        weights = (1.0 - forecast.nu) * w
        if forecast.nu > 0:
            values = np.append(values, env.inflow_energy(-forecast.offset))
            weights = np.append(weights, forecast.nu)
        return values, weights
    if isinstance(forecast, DiscreteForecast):
        return env.inflow_energy(forecast.values), forecast.weights.copy()
    value = float(forecast)
    return np.array([env.inflow_energy(value)]), np.array([1.0])


def expected_stage2(adjustment, forecast, env: OperatingEnvelope, prices: PriceConfig) -> float:
    """Expected stage-2 cost of an adjustment under a (possibly distributional) forecast."""
    values, weights = forecast_atoms(forecast, env)
    a = np.asarray(adjustment, dtype=float)
    costs = stage2_cost(a[..., None], values, env, prices)
    out = costs @ weights
    if a.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# optimal adjustment and realised cost
# ---------------------------------------------------------------------------


def _breakpoints(values: np.ndarray, env: OperatingEnvelope) -> np.ndarray:
    """Candidate adjustments: kinks of stage 1 plus the stage-2 kinks of every atom."""
    c = env.clim_generation
    spill = np.maximum(0.0, values - env.capacity_energy)
    over_kink = (values - env.stage2_up_frac * c - spill) / c - 1.0
    under_kink = values / c - (1.0 - env.stage2_down_frac)
    fixed = np.array([env.a_min, -env.free_down_frac, 0.0, env.free_up_frac, env.a_max])
    cand = np.concatenate([fixed, over_kink, under_kink])
    cand = np.clip(cand, env.a_min, env.a_max)
    return np.unique(cand)


def _expected_objective(cand: np.ndarray, values, weights, env: OperatingEnvelope, prices: PriceConfig):
    """Stage-1 plus expected stage-2 cost at each candidate adjustment.

    Both hinge sums are evaluated with sorted prefix sums, which is exact for
    the piecewise-linear stage-2 cost and linear in the atom count.
    """
    c = env.clim_generation
    spill = np.maximum(0.0, values - env.capacity_energy)
    spill_cost = prices.peak * float(spill @ weights)

    # off-peak overage: sum_i w_i * max(0, b_i - t) with t = (1 + A) c
    b = values - env.stage2_up_frac * c - spill
    order = np.argsort(b, kind="stable")
    b_sorted = b[order]
    wb = weights[order]
    suffix_w = np.concatenate([np.cumsum(wb[::-1])[::-1], [0.0]])
    suffix_bw = np.concatenate([np.cumsum((wb * b_sorted)[::-1])[::-1], [0.0]])
    t = (1.0 + cand) * c
    j = np.searchsorted(b_sorted, t, side="right")
    w_over = suffix_bw[j] - t * suffix_w[j]

    # underage: sum_i w_i * max(0, u - i_i) with u = t - stage2_down c
    order_i = np.argsort(values, kind="stable")
    i_sorted = values[order_i]
    wi = weights[order_i]
    prefix_w = np.concatenate([[0.0], np.cumsum(wi)])
    prefix_iw = np.concatenate([[0.0], np.cumsum(wi * i_sorted)])
    u = t - env.stage2_down_frac * c
    k = np.searchsorted(i_sorted, u, side="left")
    w_under = u * prefix_w[k] - prefix_iw[k]

    stage2 = prices.differential * w_over + 0.5 * prices.differential * w_under + spill_cost
    return stage1_cost(cand, env, prices) + stage2


def optimal_adjustment(
    forecast,
    env: OperatingEnvelope,
    prices: PriceConfig,
    forecast_type: str = "probabilistic",
) -> AdjustmentDecision:
    """Minimise stage-1 plus expected stage-2 cost over the adjustment range.

    The objective is piecewise linear in the adjustment, so evaluating every
    breakpoint is exact; ties resolve to the smallest-magnitude adjustment.
    The objective is ``differential * F(A) + peak * E[spill]``; candidates
    within 1e-9 (1 + |F|) of the best F tie, so the decision does not depend
    on the prices.
    """
    values, weights = forecast_atoms(forecast, env)
    cand = _breakpoints(values, env)
    obj = _expected_objective(cand, values, weights, env, prices)
    best = obj.min()
    spill_cost = prices.peak * float(np.maximum(0.0, values - env.capacity_energy) @ weights)
    tol = 1e-9 * (prices.differential + abs(best - spill_cost))
    tied = cand[obj <= best + tol]
    a_star = float(min(tied, key=lambda a: (abs(a), a > 0)))
    cost = stage1_cost(a_star, env, prices) + float(
        stage2_cost(a_star, values, env, prices) @ weights
    )
    return AdjustmentDecision(adjustment=a_star, expected_cost=cost, forecast_type=forecast_type)


def realized_cost(
    decision: AdjustmentDecision,
    observed_energy: float,
    env: OperatingEnvelope,
    prices: PriceConfig,
) -> CostBreakdown:
    """True cost of a decision once the inflow is observed."""
    return CostBreakdown(
        stage1=stage1_cost(decision.adjustment, env, prices),
        stage2=stage2_cost(decision.adjustment, observed_energy, env, prices),
    )


def water_value(total_costs, clim_generations, peak_price: float) -> float:
    """Net unit rate achieved: (sum(GEN * peak) - sum(costs)) / sum(GEN), GBP/MWh."""
    totals = np.asarray(total_costs, dtype=float)
    gens = np.asarray(clim_generations, dtype=float)
    if totals.shape != gens.shape or len(totals) == 0:
        raise InputError("costs and generations must be aligned non-empty arrays")
    return float((gens.sum() * peak_price - totals.sum()) / gens.sum())


# ---------------------------------------------------------------------------
# evaluation cases and the price sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostCases:
    """Scored forecasts as aligned columns: observed inflow plus the three competing forecasts.

    Every column has one entry per case.  ``envelope`` holds one envelope
    whose ``clim_generation`` (and any other field) is such a column, and
    ``probabilistic`` one ZAGA distribution with array parameters.
    """

    issue_dates: np.ndarray  # datetime64[D]
    horizons: np.ndarray  # horizon names
    observed_inflow: np.ndarray  # normalised inflow over the horizon
    envelope: OperatingEnvelope
    climatological: np.ndarray  # climatology medians (point forecasts, inflow units)
    deterministic: np.ndarray  # predictive medians (point forecasts, inflow units)
    probabilistic: ZagaDistribution

    def __len__(self) -> int:
        return len(self.issue_dates)

    def forecast(self, forecast_type: str):
        if forecast_type not in FORECAST_TYPES:
            raise InputError(f"unknown forecast type {forecast_type!r}")
        return getattr(self, forecast_type)


def evaluate_case(forecasts, observed_inflow: float, env: OperatingEnvelope, prices: PriceConfig):
    """Per-case reference: decision and realised cost breakdown for each forecast.

    ``forecasts`` maps forecast types to the case's forecasts.
    """
    observed = env.inflow_energy(observed_inflow)
    out = {}
    for ftype, forecast in forecasts.items():
        decision = optimal_adjustment(forecast, env, prices, ftype)
        out[ftype] = (decision, realized_cost(decision, observed, env, prices))
    return out


# ---------------------------------------------------------------------------
# batched decisions: one optimal adjustment per (case, forecast type)
# ---------------------------------------------------------------------------

_HALVINGS = 60  # bisection steps: a bracket of width w closes to w * 2**-60


def _fractile_gap(adjustment, dist: ZagaDistribution, env: OperatingEnvelope) -> np.ndarray:
    """h(A): the slope of the expected stage-2 cost per unit differential, over clim generation.

    ``h(A) = P(I <= (1 + A - down) c) / 2 - P(I > (1 + A + up) c) [(1 + A + up) c < cap]``,
    the right derivative of the expected underage (half rate) and off-peak
    overage; ``dist`` and ``env`` hold one entry per case.
    """
    c = env.clim_generation
    under = dist.cdf((1.0 + adjustment - env.stage2_down_frac) * c / env.energy_per_inflow)
    top = (1.0 + adjustment + env.stage2_up_frac) * c
    over = np.where(top < env.capacity_energy, 1.0 - dist.cdf(top / env.energy_per_inflow), 0.0)
    return 0.5 * under - over


def optimal_adjustments(cases: CostCases, forecast_type: str) -> np.ndarray:
    """Batched ``optimal_adjustment``: the optimal adjustment of every case, at any price.

    Inside the adjustment range the price-free objective F is convex with
    ``F'(A) / c = s1'(A) / c + h(A)`` (``_fractile_gap``), where ``s1'/c`` is
    -1/2 below the free down band, 0 inside it and +1 above it.  As
    ``-1 <= h <= 1/2``, the minimiser lies in ``[lo, hi] = [max(-free_down,
    a_min), min(free_up, a_max)]``, and the decision is the minimiser nearest
    0 (the tie-break of ``optimal_adjustment``): the root of the
    nondecreasing h on the side of 0 where F falls, clipped to ``[lo, hi]``.

    For a point forecast h is -1 below the over kink A1, 0 up to the under
    kink A2 and 1/2 beyond, so the decision is ``clip(clip(0, A1, A2), lo,
    hi)``, with the kinks of ``_breakpoints``, or 0 where F(0) is within
    1e-9 (1 + F) of it (a kink that rounding moved off 0).  For ZAGA forecasts a
    vectorised bisection finds ``inf{A > 0: h >= 0}`` when ``h(0) < 0`` and
    ``sup{A < 0: h <= 0}`` otherwise.
    """
    env = cases.envelope
    lo = np.maximum(-env.free_down_frac, env.a_min)
    hi = np.minimum(env.free_up_frac, env.a_max)
    forecast = cases.forecast(forecast_type)
    if not isinstance(forecast, ZagaDistribution):
        values = env.inflow_energy(forecast)
        c = env.clim_generation
        spill = np.maximum(0.0, values - env.capacity_energy)
        over_kink = (values - env.stage2_up_frac * c - spill) / c - 1.0
        under_kink = values / c - (1.0 - env.stage2_down_frac)
        a = np.clip(np.clip(0.0, over_kink, under_kink), lo, hi)
        # F is linear between 0 and a; where F(0) ties with F(a), 0 wins, as in optimal_adjustment
        unit = PriceConfig(peak=0.0, differential=1.0)
        f_a, f_0 = (stage1_cost(x, env, unit) + stage2_cost(x, values, env, unit) for x in (a, np.zeros_like(a)))
        return np.where(f_0 <= f_a + 1e-9 * (1.0 + f_a), 0.0, a)

    rising = _fractile_gap(0.0, forecast, env) < 0  # F falls to the right of 0

    def below(a):  # A lies below the decision
        h = _fractile_gap(a, forecast, env)
        return np.where(rising, h < 0, h <= 0)

    # bracket [a, b] with the decision in (a, b]; a range end that h does not
    # cross is the decision itself
    a = np.where(rising, 0.0, lo)
    b = np.where(rising, hi, np.where(below(lo), 0.0, lo))
    for _ in range(_HALVINGS):
        mid = 0.5 * (a + b)
        low = below(mid)
        a, b = np.where(low, mid, a), np.where(low, b, mid)
    return b


def evaluate_cases(cases: CostCases, prices: PriceConfig, adjustments=None):
    """Batched ``evaluate_case``: per forecast type, the adjustments and their realised costs.

    ``prices.differential`` may be a column of differentials, which gives one
    row of costs per differential.  ``adjustments`` may carry
    ``optimal_adjustments`` results by forecast type, to reuse them.
    """
    env = cases.envelope
    observed = env.inflow_energy(cases.observed_inflow)
    out = {}
    for ftype in FORECAST_TYPES:
        a = adjustments[ftype] if adjustments is not None else optimal_adjustments(cases, ftype)
        out[ftype] = (a, CostBreakdown(stage1_cost(a, env, prices), stage2_cost(a, observed, env, prices)))
    return out


@dataclass(frozen=True)
class ValueRow:
    forecast_type: str
    horizon: str
    differential: float
    water_value: float
    se: float
    n_cases: int


def price_sweep(
    cases: CostCases,
    differentials=tuple(range(5, 101, 5)),
    peak_price: float = 50.0,
    n_boot: int = 1000,
    seed: int = 0,
    min_cases: int = 20,
    adjustments=None,
):
    """Water value per (forecast type, horizon, differential) with bootstrap bands.

    Each case is decided once per forecast type and priced at every
    differential.  The bootstrap resamples cases per horizon and for the
    pooled "all" stratum, with the same draws for every forecast type and
    differential (paired).  A realised total is ``differential * D + peak *
    P``, with D and P the case's costs at unit prices, so one set of replicate
    sums of the generations, D and P prices every differential:
    a replicate's water value is ``(peak G - d D - peak P) / G`` in those
    sums.  ``adjustments`` is as in ``evaluate_cases``.
    Returns (value rows, per-case total-cost table).
    """
    n = len(cases)
    if n < min_cases:
        raise InputError(f"{n} cost cases is below the minimum of {min_cases}")
    gens = cases.envelope.clim_generation
    diffs = sorted({float(d) for d in differentials})
    priced = evaluate_cases(cases, PriceConfig(peak=peak_price, differential=np.array(diffs)[:, None]), adjustments)
    adjustments = {ftype: a for ftype, (a, _) in priced.items()}
    totals = {(ftype, d): col for ftype, (_, costs) in priced.items() for d, col in zip(diffs, costs.total)}
    # the price-free parts of every total: D at (peak 0, differential 1), P from (1, 1) less D
    unit_d, unit_dp = (evaluate_cases(cases, PriceConfig(peak=p, differential=1.0), adjustments) for p in (0.0, 1.0))
    columns = [gens]
    for ftype in FORECAST_TYPES:
        d = unit_d[ftype][1].total
        columns += [d, unit_dp[ftype][1].total - d]
    columns = np.column_stack(columns)

    rng = np.random.default_rng(seed)
    groups = {"all": np.arange(n)}
    for h in np.unique(cases.horizons).tolist():
        groups[h] = np.flatnonzero(cases.horizons == h)
    d_col = np.array(diffs)[:, None]
    rows = []
    for name, idx in groups.items():
        sums = replicate_sums(columns[idx], n_boot, rng)  # a group too small to report still takes its draws
        if len(idx) < min_cases:
            continue
        g, g_boot = gens[idx], sums[:, 0]
        for k, ftype in enumerate(FORECAST_TYPES):
            t_boot = d_col * sums[:, 1 + 2 * k] + peak_price * sums[:, 2 + 2 * k]
            se = ((g_boot * peak_price - t_boot) / g_boot).std(axis=1, ddof=1)
            for diff, diff_se in zip(diffs, se.tolist()):
                rows.append(
                    ValueRow(
                        forecast_type=ftype,
                        horizon=name,
                        differential=diff,
                        water_value=water_value(totals[(ftype, diff)][idx], g, peak_price),
                        se=diff_se,
                        n_cases=len(idx),
                    )
                )
    return rows, totals


def value_difference(
    cases: CostCases, totals_base: np.ndarray, totals_other: np.ndarray, n_boot: int = 1000, seed: int = 0
) -> BootstrapResult:
    """Paired bootstrap of WV(other) - WV(base); positive means 'other' is worth more.

    Lower realised costs mean higher water value, so the difference is
    (sum(base costs) - sum(other costs)) / sum(clim generation).
    """
    gens = cases.envelope.clim_generation
    g_boot, base_boot, other_boot = replicate_sums(
        np.column_stack([gens, totals_base, totals_other]), n_boot, np.random.default_rng(seed)
    ).T
    reps = (base_boot - other_boot) / g_boot
    est = float((totals_base.sum() - totals_other.sum()) / gens.sum())
    se = float(reps.std(ddof=1))
    return BootstrapResult(est, se, est - 2 * se, est + 2 * se, n_boot)
