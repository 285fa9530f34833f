from dataclasses import dataclass, fields
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaincc

from inflowcast import costmodel
from inflowcast.costmodel import (
    FORECAST_TYPES,
    CostCases,
    DiscreteForecast,
    OperatingEnvelope,
    PriceConfig,
    evaluate_case,
    evaluate_cases,
    expected_stage2,
    forecast_atoms,
    optimal_adjustment,
    optimal_adjustments,
    price_sweep,
    realized_cost,
    stage1_cost,
    stage2_cost,
    value_difference,
)
from inflowcast.errors import InputError
from inflowcast.zaga import ZagaDistribution

ENV = OperatingEnvelope(clim_generation=100.0)
PRICES = PriceConfig(peak=50.0, differential=30.0)


def grid_objective(forecast, env, prices, step=0.001):
    grid = np.arange(env.a_min, env.a_max + 1e-12, step)
    values, weights = forecast_atoms(forecast, env)
    objs = stage1_cost(grid, env, prices) + stage2_cost(grid[:, None], values, env, prices) @ weights
    return grid, objs


class TestConstructors:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("clim_generation", np.nan, "climatological generation"),
            ("clim_generation", np.array([100.0, np.nan]), "climatological generation"),
            ("free_up_frac", np.nan, "free-band fractions"),
            ("stage2_down_frac", np.nan, "free-band fractions"),
            ("max_capacity_frac", np.nan, "max capacity"),
            ("energy_per_inflow", np.nan, "energy conversion"),
            ("energy_per_inflow", np.array([1.0, np.nan]), "energy conversion"),
        ],
    )
    def test_envelope_rejects_nan(self, field, value, message):
        with pytest.raises(InputError, match=message):
            OperatingEnvelope(**{"clim_generation": 100.0, field: value})

    @pytest.mark.parametrize(
        "peak, differential, message",
        [(np.nan, 30.0, "peak price"), (np.inf, 30.0, "peak price"), (50.0, np.nan, "differential"), (50.0, np.array([[5.0], [np.nan]]), "differential")],
    )
    def test_prices_reject_nan(self, peak, differential, message):
        with pytest.raises(InputError, match=message):
            PriceConfig(peak=peak, differential=differential)

    def test_empty_case_columns_accepted(self):
        OperatingEnvelope(clim_generation=np.empty(0), energy_per_inflow=np.empty(0))


class TestStage1:
    def test_zero_adjustment_free(self):
        assert stage1_cost(0.0, ENV, PRICES) == 0.0

    def test_within_free_band(self):
        assert stage1_cost(0.2, ENV, PRICES) == 0.0
        assert stage1_cost(-0.2, ENV, PRICES) == 0.0

    def test_increase_beyond_band(self):
        # differential x (A - 0.20) x clim_generation
        assert_allclose(stage1_cost(0.30, ENV, PRICES), 30 * 0.10 * 100, rtol=1e-12)

    def test_decrease_beyond_band_half_rate(self):
        assert_allclose(stage1_cost(-0.40, ENV, PRICES), 0.5 * 30 * 0.20 * 100, rtol=1e-12)

    def test_beyond_capacity_priced_at_peak(self):
        a = ENV.a_max + 0.1
        expected = 30 * (ENV.a_max - 0.2) * 100 + 50 * 0.1 * 100
        assert_allclose(stage1_cost(a, ENV, PRICES), expected, rtol=1e-12)

    def test_below_minus_one_rejected(self):
        with pytest.raises(InputError):
            stage1_cost(-1.1, ENV, PRICES)


class TestStage2:
    def test_balanced_inflow_free(self):
        assert stage2_cost(0.1, 110.0, ENV, PRICES) == 0.0

    def test_free_band_edges(self):
        assert stage2_cost(0.0, 120.0, ENV, PRICES) == 0.0  # D = +0.2 C
        assert stage2_cost(0.0, 50.0, ENV, PRICES) == 0.0  # D = -0.5 C

    def test_overage_rate(self):
        assert_allclose(stage2_cost(0.0, 130.0, ENV, PRICES), 30 * 10, rtol=1e-12)

    def test_underage_half_rate(self):
        assert_allclose(stage2_cost(0.0, 40.0, ENV, PRICES), 0.5 * 30 * 10, rtol=1e-12)

    def test_spill_at_peak_price(self):
        # capacity = 240 MWh; 5 MWh beyond it is lost at the peak price
        cost = stage2_cost(0.0, 245.0, ENV, PRICES)
        spill_component = 50 * 5
        off_peak_component = 30 * (245 - 100 - 20 - 5)
        assert_allclose(cost, spill_component + off_peak_component, rtol=1e-12)

    def test_costs_weakly_increase_beyond_bands(self):
        inflows = np.linspace(0, 300, 601)
        costs = stage2_cost(0.0, inflows, ENV, PRICES)
        assert np.all(costs >= 0)
        over = inflows >= 120.0
        under = inflows <= 50.0
        assert np.all(np.diff(costs[over]) >= -1e-12)
        assert np.all(np.diff(costs[under][::-1]) >= -1e-12)


class TestExpectedStage2:
    def test_degenerate_matches_point(self):
        value = 1.4
        atoms = expected_stage2(0.1, value, ENV, PRICES)
        direct = stage2_cost(0.1, ENV.inflow_energy(value), ENV, PRICES)
        assert_allclose(atoms, direct, rtol=1e-12)

    def test_two_atom_mixture(self):
        fc = DiscreteForecast(np.array([0.9, 1.5]), np.array([0.5, 0.5]))
        expected = 0.5 * stage2_cost(0.0, 90.0, ENV, PRICES) + 0.5 * stage2_cost(0.0, 150.0, ENV, PRICES)
        assert_allclose(expected_stage2(0.0, fc, ENV, PRICES), expected, rtol=1e-12)

    def test_quadrature_matches_monte_carlo(self, rng):
        for _ in range(5):
            d = ZagaDistribution(rng.uniform(0.5, 2), rng.uniform(0.3, 1.2), rng.uniform(0, 0.3), rng.uniform(0, 0.3))
            a = rng.uniform(-0.5, 1.0)
            approx = expected_stage2(a, d, ENV, PRICES)
            draws = d.random(rng, 1_000_000)
            mc = stage2_cost(a, ENV.inflow_energy(draws), ENV, PRICES).mean()
            assert_allclose(approx, mc, rtol=5e-3, atol=0.5)


class TestOptimalAdjustment:
    def test_climatological_forecast_stays_put(self):
        d = optimal_adjustment(1.0, ENV, PRICES, "climatological")
        assert d.adjustment == 0.0
        assert d.expected_cost == 0.0

    def test_forecast_at_free_band_edge(self):
        d = optimal_adjustment(1.2, ENV, PRICES)
        assert d.adjustment == 0.0
        assert d.expected_cost == 0.0

    def test_beats_grid_on_random_instances(self, rng):
        for trial in range(120):
            env = OperatingEnvelope(
                clim_generation=float(rng.uniform(50, 200)),
                max_capacity_frac=float(rng.uniform(1.5, 3.0)),
                energy_per_inflow=float(rng.uniform(50, 150)),
            )
            prices = PriceConfig(peak=50.0, differential=float(rng.uniform(5, 100)))
            kind = trial % 3
            if kind == 0:
                fc = float(rng.uniform(0, 3))
            elif kind == 1:
                k = int(rng.integers(2, 6))
                w = rng.random(k)
                fc = DiscreteForecast(rng.uniform(0, 3, k), w / w.sum())
            else:
                fc = ZagaDistribution(
                    rng.uniform(0.3, 3), rng.uniform(0.3, 2), rng.uniform(0, 0.5), rng.uniform(0, 0.5)
                )
            decision = optimal_adjustment(fc, env, prices)
            grid, objs = grid_objective(fc, env, prices)
            assert decision.expected_cost <= objs.min() + 1e-9 * (1 + abs(objs.min()))
            assert env.a_min <= decision.adjustment <= env.a_max

    @pytest.mark.parametrize("stage2_down", [0.3, 0.7])
    def test_beats_grid_off_the_default_down_band(self, rng, stage2_down):
        # the stage-2 down kink sits at I / c - (1 - stage2_down), which only
        # the default 0.5 confuses with I / c - stage2_down
        env = OperatingEnvelope(clim_generation=100.0, stage2_down_frac=stage2_down)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            w = rng.random(k)
            fc = DiscreteForecast(rng.uniform(0, 3, k), w / w.sum())
            decision = optimal_adjustment(fc, env, PRICES)
            _, objs = grid_objective(fc, env, PRICES)
            assert decision.expected_cost <= objs.min() + 1e-9 * (1 + abs(objs.min()))

    def test_tie_prefers_smallest_magnitude(self):
        # a flat zero-cost plateau spans the free bands; 0 must win
        d = optimal_adjustment(1.1, ENV, PRICES)
        assert d.adjustment == 0.0


class TestRealizedCost:
    def test_zero_cost_fixed_point(self):
        for ftype, fc in (("climatological", 1.0), ("deterministic", 1.0), ("probabilistic", 1.0)):
            decision = optimal_adjustment(fc, ENV, PRICES, ftype)
            costs = realized_cost(decision, ENV.inflow_energy(1.0), ENV, PRICES)
            assert costs.total == 0.0

    def test_total_is_stage_sum(self, rng):
        for _ in range(20):
            fc = float(rng.uniform(0, 3))
            observed = ENV.inflow_energy(rng.uniform(0, 3))
            decision = optimal_adjustment(fc, ENV, PRICES)
            costs = realized_cost(decision, observed, ENV, PRICES)
            s1 = stage1_cost(decision.adjustment, ENV, PRICES)
            s2 = stage2_cost(decision.adjustment, observed, ENV, PRICES)
            assert_allclose(costs.total, s1 + s2, rtol=1e-12)
            assert costs.stage1 >= 0 and costs.stage2 >= 0

    def test_perfect_information_dominates_climatology(self, rng):
        for _ in range(300):
            observed_inflow = float(rng.uniform(0, 3))
            observed = ENV.inflow_energy(observed_inflow)
            perfect = optimal_adjustment(observed_inflow, ENV, PRICES, "deterministic")
            clim = optimal_adjustment(1.0, ENV, PRICES, "climatological")
            cost_perfect = realized_cost(perfect, observed, ENV, PRICES).total
            cost_clim = realized_cost(clim, observed, ENV, PRICES).total
            assert cost_perfect <= cost_clim + 1e-9


class TestRiskNeutralThreshold:
    """Two-outcome instances: act beyond the free band iff the event is likely enough.

    With the low outcome at half the climatological level, any positive
    adjustment immediately costs 0.5 d per MWh when the low outcome lands,
    while saving d per MWh when the high outcome lands: the threshold is
    p > 0.5 (1 - p), i.e. p* = 1/3.
    """

    @pytest.mark.parametrize("differential", [10.0, 30.0, 80.0])
    @pytest.mark.parametrize("h", [0.15, 0.3])
    def test_threshold_at_one_third(self, differential, h):
        prices = PriceConfig(peak=50.0, differential=differential)
        v_hi = 1.2 + h
        for p, expect_action in ((1 / 3 - 0.02, False), (1 / 3 + 0.02, True)):
            fc = DiscreteForecast(np.array([0.5, v_hi]), np.array([1 - p, p]))
            decision = optimal_adjustment(fc, ENV, prices)
            if expect_action:
                assert decision.adjustment > 0.0
            else:
                assert decision.adjustment == 0.0

    def test_mirrored_reduction_threshold(self):
        # reducing generation saves 0.5 d on the low branch but costs d on the
        # high branch once the deviation breaches the +20% band: act iff
        # 0.5 (1 - p) > p, i.e. p < 1/3
        prices = PriceConfig(peak=50.0, differential=40.0)
        v_lo, v_hi = 0.5 - 0.3, 1.2
        for p, expect_action in ((1 / 3 - 0.02, True), (1 / 3 + 0.02, False)):
            fc = DiscreteForecast(np.array([v_lo, v_hi]), np.array([1 - p, p]))
            decision = optimal_adjustment(fc, ENV, prices)
            if expect_action:
                assert decision.adjustment < 0.0
            else:
                assert decision.adjustment == 0.0


@dataclass(frozen=True)
class Case:
    """One scored forecast built from scalars; ``stack`` turns a list of them into ``CostCases``."""

    horizon: str
    observed_inflow: float
    envelope: OperatingEnvelope
    climatological: float
    deterministic: float
    probabilistic: ZagaDistribution

    def forecast(self, forecast_type: str):
        return getattr(self, forecast_type)

    def forecasts(self) -> dict:
        return {ftype: self.forecast(ftype) for ftype in FORECAST_TYPES}


def stack(cases) -> CostCases:
    def column(items, attr):
        return np.array([getattr(item, attr) for item in items])

    envs, dists = [c.envelope for c in cases], [c.probabilistic for c in cases]
    return CostCases(
        issue_dates=np.full(len(cases), np.datetime64("2015-01-05", "D")),
        horizons=column(cases, "horizon"),
        observed_inflow=column(cases, "observed_inflow"),
        envelope=OperatingEnvelope(**{f.name: column(envs, f.name) for f in fields(OperatingEnvelope)}),
        climatological=column(cases, "climatological"),
        deterministic=column(cases, "deterministic"),
        probabilistic=ZagaDistribution(*(column(dists, p) for p in ("mu", "sigma", "nu", "offset"))),
    )


def make_case_list(rng, n=60):
    cases = []
    for i in range(n):
        clim = float(rng.uniform(0.8, 1.2))
        dist = ZagaDistribution(
            float(rng.uniform(0.6, 1.6)), float(rng.uniform(0.3, 0.9)), float(rng.uniform(0, 0.2)), 0.1
        )
        env = OperatingEnvelope(clim_generation=clim * 100.0, energy_per_inflow=100.0)
        cases.append(
            Case(
                horizon="Forecast Week 1" if i % 2 else "Forecast Week 2",
                observed_inflow=float(dist.random(rng, 1)[0]),
                envelope=env,
                climatological=clim,
                deterministic=float(dist.quantile(0.5)),
                probabilistic=dist,
            )
        )
    return cases


def make_cases(rng, n=60) -> CostCases:
    return stack(make_case_list(rng, n))


class TestSweep:
    def test_symmetric_degenerate_forecasts_match(self, rng):
        # when the predictive distribution is (nearly) a point at its median,
        # deterministic and probabilistic decisions coincide
        sharp = ZagaDistribution(1.0, 0.01, 0.0, 0.0)
        det = optimal_adjustment(float(sharp.quantile(0.5)), ENV, PRICES, "deterministic")
        prob = optimal_adjustment(sharp, ENV, PRICES, "probabilistic")
        assert_allclose(det.adjustment, prob.adjustment, atol=5e-3)

    def test_climatological_value_decreases_with_differential(self, rng):
        cases = make_cases(rng)
        rows = price_sweep(cases, differentials=(10, 30, 50, 70, 90), n_boot=50, seed=0)
        clim = sorted(
            [r for r in rows if r.forecast_type == "climatological" and r.horizon == "all"],
            key=lambda r: r.differential,
        )
        values = [r.water_value for r in clim]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_fixed_seed_reproducible(self, rng):
        cases = make_cases(rng)
        rows1 = price_sweep(cases, differentials=(20, 60), n_boot=100, seed=7)
        rows2 = price_sweep(cases, differentials=(20, 60), n_boot=100, seed=7)
        assert rows1 == rows2

    def test_paired_value_difference(self, rng):
        cases = make_cases(rng)
        totals = priced_totals(cases, (60,))
        diff = value_difference(
            cases, totals[("climatological", 60.0)], totals[("probabilistic", 60.0)], n_boot=300, seed=1
        )
        value = {r.forecast_type: r.water_value for r in price_sweep(cases, (60,), n_boot=2) if r.horizon == "all"}
        assert_allclose(diff.estimate, value["probabilistic"] - value["climatological"], rtol=1e-10)

    @pytest.mark.parametrize(
        "prices", [{"differentials": (30, 0)}, {"differentials": (30, float("nan"))}, {"peak_price": float("inf")}]
    )
    def test_rejects_a_differential_or_peak_that_price_config_rejects(self, rng, prices):
        with pytest.raises(InputError):
            price_sweep(make_cases(rng), n_boot=2, **prices)

    def test_prices_only_at_unit_prices(self, rng):
        cases = make_cases(rng)
        with patch.object(costmodel, "evaluate_cases", wraps=costmodel.evaluate_cases) as spy:
            price_sweep(cases, differentials=(20, 60), n_boot=10)
        assert [c.args[1] for c in spy.call_args_list] == [PriceConfig(0.0, 1.0), PriceConfig(1.0, 1.0)]

    def test_evaluate_case_returns_all_types(self, rng):
        case = make_case_list(rng, n=1)[0]
        out = evaluate_case(case.forecasts(), case.observed_inflow, case.envelope, PRICES)
        assert set(out) == {"climatological", "deterministic", "probabilistic"}
        for decision, costs in out.values():
            assert costs.total == pytest.approx(costs.stage1 + costs.stage2)


# kinds of batched-decision cases, each drawn at least once per example:
# "band" - point forecasts inside or at the edge of the free bands, where the
#          objective is flat and the tie-break decides;
# "spill" - observation and forecast mass above the plant's capacity;
# "low" - negative forecasts (ZAGA offset) with a down band reaching
#         A = -1, so the optimum is clipped at a_min;
# "high" - forecasts far above capacity, whose kinks are clipped at a_max
#          (the optimum itself cannot sit at a_max: beyond the free up band
#          stage 1 costs the differential per MWh and saves at most that)
CASE_KINDS = ("band", "spill", "low", "high")


@st.composite
def batch_case(draw, kind):
    def ratio(lo, hi):
        return draw(st.floats(lo, hi))

    if kind == "band" and draw(st.booleans()):
        env = OperatingEnvelope(clim_generation=100.0)  # band edges at exact ratios
    else:
        free_up = ratio(0.05, 0.5)
        env = OperatingEnvelope(
            clim_generation=ratio(20.0, 200.0),
            free_up_frac=free_up,
            free_down_frac=ratio(1.0, 1.5) if kind == "low" else ratio(0.05, 0.5),
            stage2_up_frac=ratio(0.05, 0.5),
            stage2_down_frac=ratio(0.05, 0.8),
            max_capacity_frac=ratio(1.05 + free_up, 3.0),
            energy_per_inflow=ratio(20.0, 150.0),
        )
    unit = env.clim_generation / env.energy_per_inflow  # inflow of one climatological generation
    cap = env.max_capacity_frac
    nu = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.6)))
    offset = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5))) * unit
    level = {
        "band": lambda: draw(st.one_of(st.sampled_from([0.5, 0.8, 1.0, 1.2, 1.4, 1.7]), st.floats(0.3, 1.9))),
        "spill": lambda: ratio(cap, 2.0 * cap),
        "low": lambda: -ratio(0.0, 1.0),
        "high": lambda: ratio(cap + 0.5, 3.0 * cap),
    }[kind]
    if kind == "low":
        offset = max(offset, 1.2 * unit)
    dist = ZagaDistribution((abs(level()) + 0.1) * unit + offset, ratio(0.2, 1.5), nu, offset)
    return Case(
        horizon=draw(st.sampled_from(["Forecast Week 1", "Forecast Week 2"])),
        observed_inflow=level() * unit,
        envelope=env,
        climatological=level() * unit,
        deterministic=level() * unit,
        probabilistic=dist,
    )


@st.composite
def batch_cases(draw):
    n = draw(st.integers(len(CASE_KINDS), 3 * len(CASE_KINDS)))
    return [draw(batch_case(CASE_KINDS[i % len(CASE_KINDS)])) for i in range(n)]


def exact_objective(adjustment, dist: ZagaDistribution, env: OperatingEnvelope) -> float:
    """Price-free F(A) under a ZAGA forecast, from the gamma partial expectations.

    For Y ~ (1 - nu) Gamma(a, s) + nu delta_0 with gamma mean mu and G_k the
    regularised lower incomplete gamma function,
    E[max(0, Y - tau)] = (1 - nu) [mu (1 - G_{a+1}(tau/s)) - tau (1 - G_a(tau/s))]
    for tau >= 0; inflow energy is I = epi (Y - offset).
    """
    c, epi = env.clim_generation, env.energy_per_inflow
    a, s, mu, nu = dist.shape, dist.scale, dist.mu, dist.nu

    def excess(t):  # E[max(0, I - t)]
        tau = t / epi + dist.offset
        if tau < 0:
            return epi * ((1.0 - nu) * mu - tau)
        return epi * (1.0 - nu) * (mu * gammaincc(a + 1.0, tau / s) - tau * gammaincc(a, tau / s))

    top = (1.0 + adjustment + env.stage2_up_frac) * c
    over = excess(top) - excess(env.capacity_energy) if top < env.capacity_energy else 0.0
    bottom = (1.0 + adjustment - env.stage2_down_frac) * c
    under = bottom - epi * dist.mean() + excess(bottom)
    stage1 = (max(0.0, adjustment - env.free_up_frac) + 0.5 * max(0.0, -adjustment - env.free_down_frac)) * c
    return stage1 + over + 0.5 * under


UNIT_DIFFERENTIAL = PriceConfig(peak=0.0, differential=1.0)  # prices at which the cost is F(A)


def exact_objectives(adjustments, forecast, env: OperatingEnvelope) -> np.ndarray:
    """F(A) at each of ``adjustments``: ``exact_objective`` for a ZAGA forecast, the cost at the point for a point forecast."""
    if isinstance(forecast, ZagaDistribution):
        return np.array([exact_objective(a, forecast, env) for a in adjustments])
    at_point = env.inflow_energy(forecast)
    return stage1_cost(adjustments, env, UNIT_DIFFERENTIAL) + stage2_cost(adjustments, at_point, env, UNIT_DIFFERENTIAL)


def priced_totals(cases, diffs, peak=50.0, adjustments=None):
    """Per-case realised totals by (forecast type, differential), each priced by ``evaluate_cases``."""
    if adjustments is None:
        adjustments = {ftype: optimal_adjustments(cases, ftype) for ftype in FORECAST_TYPES}
    priced = {d: evaluate_cases(cases, PriceConfig(peak, d), adjustments) for d in sorted({float(d) for d in diffs})}
    return {(ftype, d): out[ftype][1].total for ftype in FORECAST_TYPES for d, out in priced.items()}


def unit_sum_values(cases, diffs, peak, min_cases):
    """Water values from each group's sums of G and of the unit-price costs D and P.

    Returns {(forecast type, horizon, differential): ``(peak G - (d D + peak P)) / G``}.
    """
    unit_d, unit_dp = (evaluate_cases(cases, PriceConfig(p, 1.0)) for p in (0.0, 1.0))
    groups = {"all": np.arange(len(cases))}
    groups.update((h, np.flatnonzero(cases.horizons == h)) for h in np.unique(cases.horizons).tolist())
    out = {}
    for name, idx in groups.items():
        if len(idx) < min_cases:
            continue
        for ftype in FORECAST_TYPES:
            d = unit_d[ftype][1].total
            columns = np.column_stack([cases.envelope.clim_generation, d, unit_dp[ftype][1].total - d])
            g, d, p = columns[idx].sum(axis=0)
            for diff in sorted({float(x) for x in diffs}):
                out[(ftype, name, diff)] = (g * peak - (diff * d + peak * p)) / g
    return out


def gathered_sweep(cases, totals, peak, n_boot, seed, min_cases):
    """The sweep's bootstrap by gathers: every group's (n_boot, n) draw matrix at once, one gather per column.

    Returns {(forecast type, horizon, differential): (water value, SE)}.
    """
    gens = cases.envelope.clim_generation
    rng = np.random.default_rng(seed)
    groups = {"all": np.arange(len(cases))}
    groups.update((h, np.flatnonzero(cases.horizons == h)) for h in np.unique(cases.horizons).tolist())
    draws = {name: rng.integers(0, len(idx), size=(n_boot, len(idx))) for name, idx in groups.items()}
    out = {}
    for name, idx in groups.items():
        if len(idx) < min_cases:
            continue
        g = gens[idx]
        g_boot = g[draws[name]].sum(axis=1)
        for (ftype, diff), col in totals.items():
            t = col[idx]
            reps = (g_boot * peak - t[draws[name]].sum(axis=1)) / g_boot
            out[(ftype, name, diff)] = ((g.sum() * peak - t.sum()) / g.sum(), reps.std(ddof=1))
    return out


def random_cost_cases(rng, n: int) -> CostCases:
    """``n`` cases of two horizons from array draws, without per-case objects."""
    clim = rng.uniform(0.8, 1.2, n)
    mu, sigma, nu = rng.uniform(0.6, 1.6, n), rng.uniform(0.3, 0.9, n), rng.uniform(0, 0.2, n)
    dist = ZagaDistribution(mu, sigma, nu, np.full(n, 0.1))
    return CostCases(
        issue_dates=np.full(n, np.datetime64("2015-01-05", "D")),
        horizons=np.where(np.arange(n) % 2, "Forecast Week 1", "Forecast Week 2"),
        observed_inflow=rng.gamma(1 / sigma**2, sigma**2 * mu) * (rng.random(n) > nu) - 0.1,
        envelope=OperatingEnvelope(clim_generation=clim * 100.0, energy_per_inflow=np.full(n, 100.0)),
        climatological=clim,
        deterministic=mu,
        probabilistic=dist,
    )


class TestSweepBootstrap:
    @settings(max_examples=40, deadline=None)
    @given(
        cases=batch_cases(),
        diffs=st.lists(st.integers(1, 120), min_size=1, max_size=6),
        n_boot=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        min_cases=st.integers(1, 4),  # batch_cases gives at least 4 cases; a horizon may have fewer
    )
    def test_replicate_sums_match_gathered_totals(self, cases, diffs, n_boot, seed, min_cases):
        # water values bit for bit from the unit-price sums; water values and SEs from
        # d * sum(D) + peak * sum(P) within 1e-12 of those of sum(totals). A water value that
        # cannot vary has SE 0 here but a few ulp of the peak price from the gathers (7e-15 at
        # peak 50 in one example), hence the floor at 1e-12 of the peak.
        table = stack(cases)
        with patch.object(costmodel, "MIN_VALUE_CASES", min_cases):
            rows = price_sweep(table, diffs, n_boot=n_boot, seed=seed)
        reference = gathered_sweep(table, priced_totals(table, diffs), 50.0, n_boot, seed, min_cases)
        unit_sums = unit_sum_values(table, diffs, 50.0, min_cases)
        assert [(r.forecast_type, r.horizon, r.differential) for r in rows] == list(reference) == list(unit_sums)
        for r in rows:
            wv, se = reference[(r.forecast_type, r.horizon, r.differential)]
            assert r.water_value == unit_sums[(r.forecast_type, r.horizon, r.differential)]
            assert_allclose(r.water_value, wv, rtol=1e-12, atol=1e-12 * 50.0)
            assert_allclose(r.se, se, rtol=1e-12, atol=1e-12 * 50.0)

    def test_value_difference_matches_gathered_totals(self, rng):
        cases = make_cases(rng)
        totals = priced_totals(cases, (60,))
        base, other = totals[("deterministic", 60.0)], totals[("probabilistic", 60.0)]
        diff = value_difference(cases, base, other, n_boot=300, seed=4)
        draws = np.random.default_rng(4).integers(0, len(cases), size=(300, len(cases)))
        gens = cases.envelope.clim_generation
        reps = (base[draws].sum(axis=1) - other[draws].sum(axis=1)) / gens[draws].sum(axis=1)
        assert diff.se == reps.std(ddof=1)

    def test_memory_stays_below_one_draw_matrix(self):
        # the draws of 2,000 cases x 1,000 replicates would take 16 MB as one int64 matrix
        import tracemalloc

        cases = random_cost_cases(np.random.default_rng(11), 2000)
        adjustments = {ftype: optimal_adjustments(cases, ftype) for ftype in FORECAST_TYPES}
        tracemalloc.start()
        try:
            price_sweep(cases, tuple(range(5, 101, 5)), n_boot=1000, seed=2, adjustments=adjustments)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 2000 * np.dtype(np.int64).itemsize


class TestBatchedDecisions:
    @settings(max_examples=40, deadline=None)
    @given(batch_cases())
    def test_point_decisions_match_per_case_reference_at_every_differential(self, cases):
        diffs = tuple(range(5, 101, 5))
        table = stack(cases)
        adjustments = {ftype: optimal_adjustments(table, ftype) for ftype in FORECAST_TYPES}
        totals = priced_totals(table, diffs, adjustments=adjustments)
        for ftype in ("climatological", "deterministic"):
            for i, case in enumerate(cases):
                observed = case.envelope.inflow_energy(case.observed_inflow)
                for d in diffs:
                    prices = PriceConfig(peak=50.0, differential=float(d))
                    decision = optimal_adjustment(case.forecast(ftype), case.envelope, prices, ftype)
                    assert adjustments[ftype][i] == decision.adjustment, (ftype, i, d)
                    expected = realized_cost(decision, observed, case.envelope, prices).total
                    assert totals[(ftype, float(d))][i] == expected, (ftype, i, d)

    @settings(max_examples=40, deadline=None)
    @given(batch_cases())
    def test_zaga_decisions_minimise_the_exact_objective(self, cases):
        # the point forecasts' decisions too, each against its own exact objective
        table = stack(cases)
        for ftype in FORECAST_TYPES:
            for case, a in zip(cases, optimal_adjustments(table, ftype)):
                env, forecast = case.envelope, case.forecast(ftype)
                assert env.a_min <= a <= env.a_max
                reference = optimal_adjustment(forecast, env, PRICES).adjustment
                best = exact_objectives([reference, *np.linspace(env.a_min, env.a_max, 2001)], forecast, env).min()
                assert exact_objectives([a], forecast, env)[0] <= best + 1e-9 * (1.0 + abs(best)), (ftype, a, reference)

    def test_clipped_optimum_at_a_min(self):
        # every outcome lies below the stage-2 down band even at A = -1, and the
        # stage-1 down band is free that far: cutting all generation is optimal
        env = OperatingEnvelope(clim_generation=100.0, free_down_frac=1.2)
        case = Case(
            horizon="Forecast Week 1",
            observed_inflow=0.0,
            envelope=env,
            climatological=-0.8,
            deterministic=-0.8,
            probabilistic=ZagaDistribution(0.1, 0.5, 0.3, 1.0),
        )
        for ftype in FORECAST_TYPES:
            assert optimal_adjustments(stack([case]), ftype)[0] == env.a_min
            assert optimal_adjustment(case.forecast(ftype), env, PRICES).adjustment == env.a_min

    def test_point_kink_rounded_off_zero_ties_with_zero(self):
        # a spilling point forecast whose over kink is 0 up to rounding (2.2e-16):
        # the reference keeps 0 by its tie rule, and so must the batched decision
        env = OperatingEnvelope(
            clim_generation=85.49157465330748, free_up_frac=0.25, free_down_frac=0.5,
            stage2_up_frac=0.5, max_capacity_frac=1.5, energy_per_inflow=20.0,
        )
        value = 8.549157465330747
        case = Case("Forecast Week 1", value, env, value, value, ZagaDistribution(8.976615338597286, 1.0))
        assert optimal_adjustment(value, env, PRICES).adjustment == 0.0
        assert optimal_adjustments(stack([case]), "climatological")[0] == 0.0

    def test_evaluate_cases_prices_the_batched_decisions(self, rng):
        cases = make_case_list(rng, n=30)
        table = stack(cases)
        batched = evaluate_cases(table, PRICES)
        for ftype in FORECAST_TYPES:
            a, costs = batched[ftype]
            assert np.array_equal(a, optimal_adjustments(table, ftype))
            for i, case in enumerate(cases):
                observed = case.envelope.inflow_energy(case.observed_inflow)
                assert costs.stage1[i] == stage1_cost(a[i], case.envelope, PRICES)
                assert costs.stage2[i] == stage2_cost(a[i], observed, case.envelope, PRICES)
        for i, case in enumerate(cases):
            reference = evaluate_case(case.forecasts(), case.observed_inflow, case.envelope, PRICES)
            for ftype, (decision, costs) in reference.items():
                if ftype != "probabilistic":
                    assert batched[ftype][0][i] == decision.adjustment


def random_envelope_cases(rng, n, observed_ratio, climatological, probabilistic) -> CostCases:
    """``n`` cases with random envelopes; the observation is ``observed_ratio(env)`` times the climatological median.

    ``climatological`` and ``probabilistic`` build those forecasts from the
    (observed, median) columns.
    """
    median = rng.uniform(0.5, 1.5, n)
    epi = rng.uniform(50.0, 150.0, n)
    up, down, up2, down2 = rng.uniform(0.05, 0.5, (4, n))
    env = OperatingEnvelope(
        clim_generation=median * epi, free_up_frac=up, free_down_frac=down, stage2_up_frac=up2,
        stage2_down_frac=down2, max_capacity_frac=1.0 + up + rng.uniform(0.1, 2.0, n), energy_per_inflow=epi,
    )
    observed = observed_ratio(env) * median
    return CostCases(
        issue_dates=np.full(n, np.datetime64("2015-01-05", "D")),
        horizons=np.full(n, "Forecast Week 1"),
        observed_inflow=observed,
        envelope=env,
        climatological=climatological(observed, median),
        deterministic=observed,  # perfect information
        probabilistic=probabilistic(observed, median),
    )


class TestCostPathOnRandomCases:
    """The acceptance test's fixed-point and dominance checks through the batched path of `cost-eval`."""

    def test_forecasts_at_the_observation_cost_nothing(self, rng):
        # an observation the free stage-1 band can meet within the stage-2 bands, without spill
        def reachable(env):
            lo = np.maximum(1.0 - env.free_down_frac - env.stage2_down_frac, 0.0) + 1e-3
            hi = np.minimum(1.0 + env.free_up_frac + env.stage2_up_frac, env.max_capacity_frac) - 1e-3
            return rng.uniform(lo, hi)

        n = 1000
        sharp = lambda observed, _: ZagaDistribution(observed, np.full(n, 1e-4), np.zeros(n), np.zeros(n))
        cases = random_envelope_cases(rng, n, reachable, lambda observed, _: observed, sharp)
        prices = PriceConfig(peak=50.0, differential=rng.uniform(5.0, 100.0, n))
        for ftype, (_, costs) in evaluate_cases(cases, prices).items():
            # 0 up to the rounding of a decision at a stage-2 kink
            assert np.all(costs.total <= 1e-9 * prices.differential), ftype
            assert np.mean(costs.total == 0.0) > 0.5, ftype

    def test_perfect_information_dominates_climatology_case_wise(self, rng):
        n = 2000
        spread = lambda observed, median: ZagaDistribution(median, np.full(n, 0.5), np.full(n, 0.1), np.full(n, 0.1))
        cases = random_envelope_cases(rng, n, lambda env: rng.uniform(-0.2, env.max_capacity_frac + 0.5), lambda _, median: median, spread)
        prices = PriceConfig(peak=50.0, differential=rng.uniform(5.0, 100.0, n))
        costs = {ftype: c.total for ftype, (_, c) in evaluate_cases(cases, prices).items()}
        clim = costs["climatological"]
        assert np.all(costs["deterministic"] <= clim + 1e-9 * (prices.differential + np.abs(clim)))
        assert np.any(costs["deterministic"] < clim)  # the observations leave the climatological band
