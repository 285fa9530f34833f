"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The shared ten-year synthetic pipeline (half-life 10 days, K=11) is
built once and reused by the skill-decay and value-ordering criteria.
"""

import time

import numpy as np
import pytest
from scipy import integrate, stats

from inflowcast.costmodel import (
    DiscreteForecast,
    OperatingEnvelope,
    PriceConfig,
    forecast_atoms,
    optimal_adjustment,
    price_sweep,
    realized_cost,
    stage1_cost,
    stage2_cost,
    value_difference,
)
from inflowcast.data import CANONICAL_HORIZONS, EXTENDED_HORIZONS, WEEKLY_HORIZONS
from inflowcast.emos import build_design, fit_emos, loglik_and_gradient
from inflowcast.pipeline import (
    CostSettings,
    build_case_tables,
    build_cost_cases,
    predict_params,
    train_models,
    verify_skill,
)
from inflowcast.series import DailySeries
from inflowcast.splines import CyclicSplineBasis, seasonal_phase
from inflowcast.synth import ScenarioConfig, generate_scenario, simulate_telemetry
from inflowcast.telemetry import cross_correlation, reconstruct_net_inflow
from inflowcast.verification import crps_parametric, fair_crps, randomized_pit
from inflowcast.zaga import ZagaDistribution


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared ten-year pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline10():
    cfg = ScenarioConfig(n_years=10, n_members=11, skill_half_life=10.0, seed=2024)
    scenario = generate_scenario(cfg)
    tables = build_case_tables(scenario.forecasts, scenario.inflow, CANONICAL_HORIZONS)
    models = train_models(scenario.forecasts, scenario.inflow, CANONICAL_HORIZONS, tables=tables, seed=0)
    predictions = predict_params(models, tables)
    return scenario, tables, models, predictions


def test_fair_crps_exactness(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 21))
        members = rng.normal(0, 2, k)
        y = float(rng.normal())
        fast = fair_crps(members, y)
        diff = np.abs(members[:, None] - members[None, :]).sum()
        brute = np.abs(members - y).mean() - diff / (2 * k * (k - 1))
        worst = max(worst, abs(fast - brute))
    elapsed = time.time() - t0
    worked = fair_crps([0.0, 2.0], 1.0)
    report(
        "fair CRPS exactness vs brute force",
        worst <= 1e-12 and abs(worked) <= 1e-15 and elapsed < 5.0,
        f"worst |diff| {worst:.2e}, worked case {worked:.1e}, {elapsed:.1f}s",
    )


def test_zaga_validity():
    t0 = time.time()
    grid_ok = True
    norm_worst = 0.0
    for mu in (0.2, 0.7, 1.0, 2.5, 6.0):
        for sigma in (0.25, 0.5, 1.0, 1.8, 3.0):
            for nu in (0.0, 0.1, 0.3, 0.6, 0.9):
                d = ZagaDistribution(mu, sigma, nu)
                split = d.scale
                left, _ = integrate.quad(d.pdf, 1e-300, split, limit=400)
                right, _ = integrate.quad(d.pdf, split, np.inf, limit=400)
                err = abs(left + right + nu - 1.0)
                norm_worst = max(norm_worst, err)
                grid_ok &= err <= 1e-6
                p = np.linspace(0.005, 0.995, 60)
                usable = p > nu + 1e-9
                q = d.quantile(p[usable])
                grid_ok &= np.max(np.abs(d.cdf(q) - p[usable])) <= 1e-8

    y = np.linspace(0.01, 20, 500)
    exp_worst = 0.0
    for mu in (0.4, 1.3, 3.0):
        for nu in (0.0, 0.3):
            d = ZagaDistribution(mu, 1.0, nu)
            closed = (1 - nu) * np.exp(-y / mu) / mu
            exp_worst = max(exp_worst, np.max(np.abs(d.pdf(y) - closed)))
    elapsed = time.time() - t0
    report(
        "ZAGA validity (normalisation, round trip, exponential reduction)",
        grid_ok and exp_worst <= 1e-10 and elapsed < 30.0,
        f"norm worst {norm_worst:.1e}, exp worst {exp_worst:.1e}, {elapsed:.1f}s",
    )


def test_likelihood_gradient(rng):
    t0 = time.time()
    basis = CyclicSplineBasis(6)
    feats = np.column_stack(
        [rng.normal(1.0, 0.5, 60), rng.uniform(0, 0.5, 60), rng.uniform(0.02, 0.8, 60)]
    )
    design = build_design(feats, rng.uniform(0, basis.period, 60), basis)
    y = np.where(rng.random(60) < 0.2, 0.0, rng.gamma(2.0, 1.0, 60))
    worst = 0.0
    for _ in range(100):
        theta = rng.normal(0, 0.4, design.n_params)
        _, grad = loglik_and_gradient(theta, design, y)
        fd = np.empty_like(grad)
        for j in range(len(theta)):
            h = 1e-6 * (1 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (
                loglik_and_gradient(tp, design, y)[0] - loglik_and_gradient(tm, design, y)[0]
            ) / (2 * h)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(
        "likelihood gradient vs central finite differences",
        worst <= 1e-5 and elapsed < 30.0,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


def test_emos_recovery(rng):
    t0 = time.time()
    n = 5000
    basis = CyclicSplineBasis(6)
    feats = np.column_stack(
        [rng.normal(1.0, 0.6, n), rng.uniform(0, 0.5, n), rng.uniform(0.05, 0.8, n)]
    )
    dates = np.datetime64("2009-01-01") + rng.integers(0, 3650, n).astype("timedelta64[D]")
    design = build_design(feats, seasonal_phase(dates), basis)
    g1 = np.array([0.3, -0.1, 0.25, -0.2, -0.15, -0.1])
    g2 = np.array([0.1, 0.05, -0.1, 0.08, -0.05, -0.08])
    b1 = np.concatenate([[0.2, 0.5, -0.4], g1 - g1.mean()])
    b2 = np.concatenate([[-0.6, 0.15, 0.3], g2 - g2.mean()])
    b3 = np.array([-1.5, 0.6])
    theta_true = np.concatenate([b1, b2, b3])
    from scipy.special import expit

    mu = np.exp(design.x_mu @ b1)
    sigma = np.exp(design.x_sigma @ b2)
    nu = expit(design.x_nu @ b3)
    zero = rng.random(n) < nu
    y = np.where(zero, 0.0, rng.gamma(1 / sigma**2, sigma**2 * mu))

    model = fit_emos(feats, dates, y, basis=basis, seed=17)
    spread = max(model.start_logliks) - min(model.start_logliks)
    bad = []
    for j, (t, h, s) in enumerate(zip(theta_true, model.theta, model.standard_errors)):
        rel = abs(h - t) / max(abs(t), 1e-9)
        if rel > 0.05 and abs(h - t) > 3 * s:
            bad.append(j)
    elapsed = time.time() - t0
    report(
        "EMOS simulation recovery and multi-start consistency",
        not bad and spread <= 1e-6 and elapsed < 180.0,
        f"unrecovered {bad}, start spread {spread:.1e}, {elapsed:.1f}s",
    )


def test_calibration_pit_and_reliability(rng):
    # fit a model, then simulate fresh observations from its own predictions
    n_train, n_eval = 3000, 2000
    basis = CyclicSplineBasis(6)
    feats = np.column_stack(
        [rng.normal(1.0, 0.5, n_train), rng.uniform(0, 0.3, n_train), rng.uniform(0.05, 0.6, n_train)]
    )
    dates = np.datetime64("2009-01-01") + rng.integers(0, 3650, n_train).astype("timedelta64[D]")
    mu_true = np.exp(0.1 + 0.4 * feats[:, 0])
    sigma_true = np.exp(-0.7 + 0.2 * feats[:, 2])
    zero = rng.random(n_train) < 0.015
    y = np.where(zero, 0.0, rng.gamma(1 / sigma_true**2, sigma_true**2 * mu_true)) - 0.05
    model = fit_emos(feats, dates, y, basis=basis, seed=3, compute_se=False)

    idx = rng.integers(0, n_train, n_eval)
    mu, sigma, nu = model.params_for(feats[idx], seasonal_phase(dates[idx]))
    offset = np.full(n_eval, model.offset)
    zero_eval = rng.random(n_eval) < nu
    obs = np.where(zero_eval, 0.0, rng.gamma(1 / sigma**2, sigma**2 * mu)) - model.offset

    pit = randomized_pit(mu, sigma, nu, offset, obs, rng)
    ks_p = stats.kstest(pit, "uniform").pvalue

    levels = np.round(np.arange(0.05, 0.951, 0.05), 2)
    shape = 1 / sigma**2
    scale = sigma**2 * mu
    from inflowcast.zaga import gamma_ppf

    p_adj = (levels[None, :] - nu[:, None]) / (1 - nu[:, None])
    in_atom = levels[None, :] <= nu[:, None]
    quantiles = np.where(
        in_atom, 0.0, gamma_ppf(np.where(in_atom, 0.5, p_adj), shape[:, None], scale[:, None])
    ) - model.offset
    coverage = (obs[:, None] <= quantiles).mean(axis=0)
    band = 1.96 * np.sqrt(levels * (1 - levels) / n_eval)
    cov_ok = np.all(np.abs(coverage - levels) <= band)
    report(
        "calibration: PIT uniformity and reliability bands",
        ks_p > 0.01 and cov_ok,
        f"KS p {ks_p:.3f}, worst coverage gap {np.max(np.abs(coverage - levels)):.4f}",
    )


def test_parametric_crps_vs_monte_carlo(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        d = ZagaDistribution(
            float(rng.uniform(0.3, 4.0)),
            float(rng.uniform(0.3, 1.5)),
            float(rng.uniform(0.0, 0.5)),
            float(rng.uniform(0.0, 0.4)),
        )
        y = float(d.random(rng, 1)[0] + rng.normal(0, 0.2))
        quad = crps_parametric(d, y)
        draws = np.sort(d.random(rng, 1_000_000))
        k = len(draws)
        w = 2.0 * np.arange(k) - (k - 1)
        mc = np.abs(draws - y).mean() - (draws * w).sum() / (k * (k - 1))
        worst = max(worst, abs(quad - mc) / abs(mc))
    elapsed = time.time() - t0
    report(
        "parametric CRPS within 0.5% of 1e6-draw Monte Carlo",
        worst <= 0.005 and elapsed < 120.0,
        f"worst rel {worst:.2%}, {elapsed:.0f}s",
    )


def test_skill_decay_reproduction(pipeline10):
    t0 = time.time()
    scenario, tables, models, predictions = pipeline10
    rep = verify_skill(
        models,
        tables,
        predictions,
        scenario.inflow,
        nao=scenario.nao,
        n_boot=1000,
        seed=0,
    )
    weekly = [rep.lookup("inflow_emos", h.name) for h in WEEKLY_HORIZONS]
    extended = [rep.lookup("inflow_emos", h.name) for h in EXTENDED_HORIZONS]
    assert all(r is not None for r in weekly + extended)

    week1_significant = weekly[0].fcrpss - 2 * weekly[0].se > 0
    non_increasing = all(
        weekly[i + 1].fcrpss
        <= weekly[i].fcrpss + 2 * np.hypot(weekly[i].se, weekly[i + 1].se)
        for i in range(5)
    )
    # extended averages (days 1..N) keep more skill than the matching week
    slower_decay = all(
        extended[i].fcrpss > weekly[i].fcrpss for i in range(1, 6)
    )
    elapsed = time.time() - t0
    detail = ", ".join(f"{r.fcrpss:+.3f}" for r in weekly)
    report(
        "skill decay: week-1 significant, non-increasing, extended slower",
        week1_significant and non_increasing and slower_decay and elapsed < 600.0,
        f"weekly fCRPSS [{detail}], {elapsed:.0f}s",
    )


def test_cost_model_optimality(rng):
    t0 = time.time()
    env0 = OperatingEnvelope(clim_generation=100.0)

    grid_ok = True
    for trial in range(1000):
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
                float(rng.uniform(0.3, 3)),
                float(rng.uniform(0.3, 2)),
                float(rng.uniform(0, 0.5)),
                float(rng.uniform(0, 0.5)),
            )
        decision = optimal_adjustment(fc, env, prices)
        grid = np.arange(env.a_min, env.a_max + 1e-12, 0.001)
        values, weights = forecast_atoms(fc, env)
        objs = stage1_cost(grid, env, prices) + stage2_cost(grid[:, None], values, env, prices) @ weights
        grid_ok &= decision.expected_cost <= objs.min() + 1e-9 * (1 + abs(objs.min()))

    # zero-cost fixed point
    prices = PriceConfig(peak=50.0, differential=30.0)
    fixed_ok = all(
        realized_cost(
            optimal_adjustment(fc, env0, prices, ftype), env0.inflow_energy(1.0), env0, prices
        ).total
        == 0.0
        for ftype, fc in (
            ("climatological", 1.0),
            ("deterministic", 1.0),
            ("probabilistic", ZagaDistribution(1.0, 1e-4, 0.0, 0.0)),
        )
    )

    # perfect information dominates climatology case-wise
    dominance_ok = True
    for _ in range(10_000):
        observed_inflow = float(rng.uniform(0, 3))
        observed = env0.inflow_energy(observed_inflow)
        d_perfect = optimal_adjustment(observed_inflow, env0, prices, "deterministic")
        d_clim = optimal_adjustment(1.0, env0, prices, "climatological")
        dominance_ok &= (
            realized_cost(d_perfect, observed, env0, prices).total
            <= realized_cost(d_clim, observed, env0, prices).total + 1e-9
        )

    # risk-neutral threshold: act beyond the free band iff p exceeds
    # (expected action cost) / (loss avoided); here the ratio is 0.5 (1 - p)
    threshold_ok = True
    for diff in (10.0, 40.0, 90.0):
        pr = PriceConfig(peak=50.0, differential=diff)
        for p, expect in ((1 / 3 - 0.01, False), (1 / 3 + 0.01, True)):
            fc = DiscreteForecast(np.array([0.5, 1.5]), np.array([1 - p, p]))
            acted = optimal_adjustment(fc, env0, pr).adjustment > 0
            threshold_ok &= acted == expect

    elapsed = time.time() - t0
    report(
        "cost-model optimality (grid, fixed point, dominance, threshold)",
        grid_ok and fixed_ok and dominance_ok and threshold_ok and elapsed < 120.0,
        f"{elapsed:.0f}s",
    )


def test_value_ordering(pipeline10):
    t0 = time.time()
    scenario, tables, models, predictions = pipeline10
    settings = CostSettings()
    cases = build_cost_cases(
        models, tables, predictions, scenario.inflow,
        settings,
    )
    differentials = tuple(range(5, 101, 5))
    rows, totals = price_sweep(
        cases, differentials=differentials, peak_price=50.0, n_boot=1000, seed=0
    )

    # probabilistic beats deterministic with 2 SE significance at high differentials
    prob_beats_det = True
    for diff in (60, 65, 70, 75, 80, 85, 90, 95, 100):
        gap = value_difference(
            cases, totals[("deterministic", float(diff))], totals[("probabilistic", float(diff))],
            n_boot=1000, seed=diff,
        )
        prob_beats_det &= gap.estimate - 2 * gap.se > 0

    clim_all = {
        r.differential: r.water_value
        for r in rows
        if r.forecast_type == "climatological" and r.horizon == "all"
    }
    values = [clim_all[d] for d in sorted(clim_all)]
    clim_decreasing = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    # climatological value rises with forecast duration (extended family)
    duration_ok = True
    for diff in differentials:
        chain = [
            next(
                r.water_value
                for r in rows
                if r.forecast_type == "climatological" and r.horizon == h.name and r.differential == diff
            )
            for h in EXTENDED_HORIZONS
        ]
        duration_ok &= chain[-1] > chain[0]
        duration_ok &= all(b >= a - 0.15 for a, b in zip(chain, chain[1:]))

    elapsed = time.time() - t0
    report(
        "value ordering: probabilistic >= deterministic, climatology patterns",
        prob_beats_det and clim_decreasing and duration_ok and elapsed < 600.0,
        f"{elapsed:.0f}s",
    )


def test_ingest_round_trip(rng):
    t0 = time.time()
    sim = simulate_telemetry(n_hours=24 * 28, seed=11)
    rec = reconstruct_net_inflow(sim.telemetry, sim.curves, sim.compensation)
    rel = np.max(np.abs(rec.values - sim.true_inflow) / np.maximum(1e-12, np.abs(sim.true_inflow)))

    # same-day inflow response: the correlation peak must sit at lag zero
    n = 400
    dates = np.datetime64("2015-01-01") + np.arange(n)
    precip = rng.gamma(0.9, 4.0, n)
    inflow = 0.2 * precip + 0.15 + rng.normal(0, 0.05, n)
    xc = cross_correlation(DailySeries(dates, precip), DailySeries(dates, inflow), range(-7, 8))
    elapsed = time.time() - t0
    report(
        "ingest round trip and zero-lag correlation peak",
        rel <= 1e-6 and xc.best_lag == 0 and elapsed < 60.0,
        f"max rel {rel:.1e}, peak lag {xc.best_lag}, {elapsed:.0f}s",
    )


def test_determinism(tmp_path):
    from inflowcast.cli import main

    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[synth]\nyears = 5\n\n[horizons]\nnames = Forecast Week 1, 2 Week Forecast\n\n"
        "[verification]\nbootstrap = 100\n"
    )
    digests = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        assert main(["--config", str(cfg), "--seed", "11", "synth", "--out", str(out)]) == 0
        args = ["--inflow", str(out / "inflow.csv"), "--ensemble", str(out / "ensemble.csv")]
        assert main(["--config", str(cfg), "--seed", "11", "train", *args, "--out", str(out)]) == 0
        assert (
            main(
                ["--config", str(cfg), "--seed", "11", "verify", "--models", str(out / "models.json"), *args, "--out", str(out)]
            )
            == 0
        )
        digests.append(
            {
                name: (out / name).read_bytes()
                for name in (
                    "inflow.csv",
                    "ensemble.csv",
                    "models.json",
                    "skill.json",
                    "skill_by_horizon.csv",
                    "reliability.csv",
                )
            }
        )
    identical = all(digests[0][k] == digests[1][k] for k in digests[0])
    report("determinism: rerun with same seed is byte-identical", identical)
