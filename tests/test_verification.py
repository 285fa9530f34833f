import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

from inflowcast.data import CANONICAL_HORIZONS, horizon_by_name
from inflowcast.errors import InputError, NumericalError
from inflowcast.verification import (
    NaoIndex,
    bootstrap_spread,
    classify_skill,
    crps_parametric,
    crps_zaga_batch,
    fair_crps,
    fair_crps_many,
    fair_crps_sample,
    fcrpss,
    majority_month,
    randomized_pit,
    reliability_diagram,
    replicate_sums,
    season_of_month,
    skill_report,
    stratum_mask,
)
from inflowcast.zaga import ZagaDistribution


def crps_by_quadrature(mu, sigma, nu, offset, y):
    """Integral of (F(x) - 1{x >= z})^2 on the internal axis, z = y + offset."""
    a, theta, z = 1.0 / sigma**2, sigma**2 * mu, y + offset
    zc = max(z, 0.0)

    def cdf(x):
        return nu + (1.0 - nu) * special.gammainc(a, x / theta)

    quantiles = [special.gammaincinv(a, p) * theta for p in (1e-14, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-14)]
    points = sorted({0.0, zc, *quantiles})
    total = max(-z, 0.0)  # below the support F = 0, so the integrand is 1 on [z, 0]
    for lo, hi in zip(points[:-1], points[1:]):
        if hi <= zc:
            total += integrate.quad(lambda x: cdf(x) ** 2, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        else:
            total += integrate.quad(lambda x: (1.0 - cdf(x)) ** 2, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return total


def brute_force_fair_crps(members, y):
    x = np.asarray(members, dtype=float)
    k = len(x)
    t1 = np.abs(x - y).mean()
    t2 = sum(abs(a - b) for a in x for b in x)  # includes zero diagonal
    return t1 - t2 / (2 * k * (k - 1))


class TestFairCrps:
    def test_two_member_hand_case(self):
        assert fair_crps([0.0, 2.0], 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_all_members_on_observation(self):
        assert fair_crps([3.0, 3.0, 3.0], 3.0) == 0.0

    def test_degenerate_pair_hand_case(self):
        assert fair_crps([1.0, 1.0], 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            k = rng.integers(2, 21)
            members = rng.normal(0, 2, k)
            y = rng.normal()
            assert_allclose(fair_crps(members, y), brute_force_fair_crps(members, y), atol=1e-12)

    @given(
        members=st.lists(st.floats(-50, 50), min_size=2, max_size=12),
        y=st.floats(-50, 50),
    )
    @settings(max_examples=150, deadline=None)
    def test_brute_force_property(self, members, y):
        assert fair_crps(members, y) == pytest.approx(brute_force_fair_crps(members, y), abs=1e-10)

    def test_vectorised_matches_scalar(self, rng):
        members = rng.normal(0, 1, (40, 7))
        ys = rng.normal(0, 1, 40)
        batch = fair_crps_many(members, ys)
        for i in range(40):
            assert_allclose(batch[i], fair_crps(members[i], ys[i]), atol=1e-13)

    def test_fixed_sample_matches_per_case(self, rng):
        sample = rng.gamma(2, 1, 30)
        ys = rng.gamma(2, 1, 25)
        batch = fair_crps_sample(sample, ys)
        for i, y in enumerate(ys):
            assert_allclose(batch[i], fair_crps(sample, y), atol=1e-12)

    def test_single_member_rejected(self):
        with pytest.raises(InputError):
            fair_crps([1.0], 0.5)

    def test_propriety_surrogate(self, rng):
        # ensembles drawn from the observation's distribution cannot score
        # worse on average than mis-specified families
        n, k = 5000, 11
        y = rng.gamma(2.0, 1.0, n)
        correct = rng.gamma(2.0, 1.0, (n, k))
        shifted = rng.gamma(2.0, 1.0, (n, k)) + 0.5
        overdispersed = rng.gamma(0.5, 4.0, (n, k))  # same mean, wrong shape
        gaussian = rng.normal(2.0, np.sqrt(2.0), (n, k))
        s_correct = fair_crps_many(correct, y)
        for wrong in (shifted, overdispersed, gaussian):
            s_wrong = fair_crps_many(wrong, y)
            t = stats.ttest_rel(s_correct, s_wrong, alternative="less")
            assert t.pvalue < 0.05


class TestParametricCrps:
    def test_point_mass_at_zero_observation(self):
        d = ZagaDistribution(1.0, 1.0, nu=0.999999, offset=0.0)
        assert crps_parametric(d, 0.0) < 1e-4

    def test_exponential_closed_form(self):
        # sigma = 1, nu = 0, y = 0: CRPS = mu - E|X-X'|/2 = mu/2
        for mu in (0.5, 1.3, 4.0):
            d = ZagaDistribution(mu, 1.0, nu=0.0)
            assert_allclose(crps_parametric(d, 0.0), mu / 2, rtol=5e-3)

    def test_matches_monte_carlo(self, rng):
        # sigma capped so the sample estimator itself is precise enough at 4e5 draws
        for _ in range(8):
            d = ZagaDistribution(
                rng.uniform(0.3, 4.0), rng.uniform(0.3, 1.5), rng.uniform(0, 0.5), rng.uniform(0, 0.4)
            )
            y = float(d.random(rng, 1)[0] + rng.normal(0, 0.2))
            draws = np.sort(d.random(rng, 400_000))
            k = len(draws)
            w = 2.0 * np.arange(k) - (k - 1)
            mc = np.abs(draws - y).mean() - (draws * w).sum() / (k * (k - 1))
            assert_allclose(crps_parametric(d, y), mc, rtol=5e-3)

    def test_translation_invariance_of_offset(self, rng):
        base = ZagaDistribution(1.5, 0.8, nu=0.2, offset=0.0)
        shifted = ZagaDistribution(1.5, 0.8, nu=0.2, offset=0.6)
        for y in (0.3, 1.0, 2.5):
            assert_allclose(crps_parametric(base, y), crps_parametric(shifted, y - 0.6), rtol=1e-10)

    def test_batch_matches_scalar(self, rng):
        mu = rng.uniform(0.3, 3, 15)
        sigma = rng.uniform(0.3, 2, 15)
        nu = rng.uniform(0, 0.5, 15)
        off = rng.uniform(0, 0.4, 15)
        ys = rng.normal(1, 1, 15)
        batch = crps_zaga_batch(mu, sigma, nu, off, ys)
        for i in range(15):
            d = ZagaDistribution(mu[i], sigma[i], nu[i], off[i])
            assert_allclose(batch[i], crps_parametric(d, ys[i]), rtol=1e-12)

    @given(
        mu=st.floats(0.1, 5.0),
        sigma=st.floats(0.05, 2.0),
        nu=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
        offset=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        y=st.one_of(st.floats(-3.0, 8.0), st.just(None)),
    )
    @example(mu=1.0, sigma=0.05, nu=0.0, offset=0.0, y=1.0)
    @example(mu=2.0, sigma=0.7, nu=0.3, offset=0.4, y=-0.4)
    @example(mu=2.0, sigma=0.7, nu=0.3, offset=0.4, y=-2.0)
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_closed_form_matches_quadrature(self, mu, sigma, nu, offset, y):
        y = -offset if y is None else y  # None: the observation sits on the point mass, z = 0
        exact = crps_zaga_batch(mu, sigma, nu, offset, y)[0]
        assert exact == pytest.approx(crps_by_quadrature(mu, sigma, nu, offset, y), rel=1e-8, abs=1e-12)

    @given(
        mu=st.floats(0.1, 5.0),
        sigma=st.floats(0.05, 2.0),
        nu=st.floats(0.0, 0.9),
        offset=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_continuous_at_zero(self, mu, sigma, nu, offset):
        # the slope is -1 below z = 0 and 2 nu - 1 just above, so a step of
        # 1e-9 moves the score by at most 1e-9
        at, below, above = crps_zaga_batch(mu, sigma, nu, offset, -offset + np.array([0.0, -1e-9, 1e-9]))
        assert abs(below - at) <= 2e-9
        assert abs(above - at) <= 2e-9

    def test_observation_below_support(self):
        d = ZagaDistribution(1.0, 0.7, nu=0.1, offset=0.2)
        # y below -offset: CRPS gains the |y + offset| wedge
        far = crps_parametric(d, -1.2)
        near = crps_parametric(d, -0.2)
        assert far > near
        assert far - near == pytest.approx(1.0, abs=2e-3)


class TestSkillScores:
    def test_identical_scores_give_zero(self, rng):
        scores = rng.gamma(1, 1, 50)
        assert fcrpss(scores, scores) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_forecast_gives_one(self, rng):
        clim = rng.gamma(1, 1, 50) + 0.5
        assert fcrpss(np.zeros(50), clim) == pytest.approx(1.0)

    def test_positive_skill_matches_two_estimator_recomputation(self, rng):
        f = rng.gamma(1, 0.5, 100)
        c = rng.gamma(1, 1.0, 100) + 0.2
        expected = 1 - f.mean() / c.mean()
        assert_allclose(fcrpss(f, c), expected, rtol=1e-12)

    def test_zero_climatology_rejected(self):
        with pytest.raises(NumericalError):
            fcrpss(np.ones(30), np.zeros(30))

    def test_minimum_pairs(self):
        with pytest.raises(InputError):
            fcrpss(np.ones(5), np.ones(5))

    @pytest.mark.parametrize(
        "score,expected",
        [
            (0.45, "very good"),
            (0.31, "very good"),
            (0.30, "good"),
            (0.15, "good"),
            (0.10, "fair"),
            (0.001, "fair"),
            (0.0, "none"),
            (-0.4, "none"),
        ],
    )
    def test_classification_bands(self, score, expected):
        assert classify_skill(score) == expected


class TestReliability:
    def test_coverage_within_binomial_bands_for_calibrated_forecasts(self, rng):
        n = 4000
        mu = rng.uniform(0.5, 2.0, n)
        sigma = rng.uniform(0.4, 1.0, n)
        nu = rng.uniform(0.0, 0.03, n)
        obs = np.empty(n)
        quantiles = np.empty((n, 19))
        levels = np.round(np.arange(0.05, 0.951, 0.05), 2)
        for i in range(n):
            d = ZagaDistribution(mu[i], sigma[i], nu[i])
            obs[i] = d.random(rng, 1)[0]
            quantiles[i] = d.quantile(levels)
        diagram = reliability_diagram(obs, quantiles, levels)
        band = 1.96 * np.sqrt(levels * (1 - levels) / n)
        assert np.all(np.abs(diagram.coverage - levels) <= band + 1e-9)

    def test_forecasts_above_observations_cover_everything(self, rng):
        obs = rng.normal(0, 1, 60)
        quantiles = np.full((60, 3), 100.0)
        diagram = reliability_diagram(obs, quantiles, [0.1, 0.5, 0.9])
        assert_allclose(diagram.coverage, 1.0)

    def test_degenerate_point_forecast_tie_rule(self):
        obs = np.full(60, 2.0)
        quantiles = np.full((60, 3), 2.0)
        diagram = reliability_diagram(obs, quantiles, [0.1, 0.5, 0.9])
        assert_allclose(diagram.coverage, 1.0)  # observations <= quantile counts ties

    def test_coverage_monotone_in_level(self, rng):
        obs = rng.normal(0, 1, 200)
        levels = np.linspace(0.05, 0.95, 10)
        quantiles = np.sort(rng.normal(0, 1, (200, 10)), axis=1)
        diagram = reliability_diagram(obs, quantiles, levels)
        assert np.all(np.diff(diagram.coverage) >= 0)

    def test_randomized_pit_uniform_for_self_generated_data(self, rng):
        n = 3000
        mu = rng.uniform(0.5, 2.0, n)
        sigma = rng.uniform(0.4, 1.2, n)
        nu = rng.uniform(0.0, 0.4, n)
        off = rng.uniform(0, 0.3, n)
        obs = np.empty(n)
        for i in range(n):
            obs[i] = ZagaDistribution(mu[i], sigma[i], nu[i], off[i]).random(rng, 1)[0]
        pit = randomized_pit(mu, sigma, nu, off, obs, rng)
        assert stats.kstest(pit, "uniform").pvalue > 0.01


class TestStratification:
    def test_majority_month_and_ties(self):
        week1 = horizon_by_name("week1")
        # issue 2015-03-28: window Mar 29 .. Apr 4 -> 3 March days, 4 April days
        assert majority_month(np.datetime64("2015-03-28"), week1) == (2015, 4)
        # issue 2015-03-27: window Mar 28 .. Apr 3 -> 4 March days
        assert majority_month(np.datetime64("2015-03-27"), week1) == (2015, 3)
        # issue 2015-03-24, two weeks: Mar 25 .. Apr 7 -> 7 days each, the earlier month wins
        assert majority_month(np.datetime64("2015-03-24"), horizon_by_name("2week")) == (2015, 3)

    def test_extended_seasons(self):
        assert season_of_month(4) == "summer"
        assert season_of_month(9) == "summer"
        assert season_of_month(10) == "winter"
        assert season_of_month(3) == "winter"

    def test_all_filter_is_identity(self, rng):
        dates = np.datetime64("2015-01-01") + rng.integers(0, 365, 40)
        mask = stratum_mask(dates, horizon_by_name("week1"), "all", "any")
        assert mask.all()

    def test_season_partition_covers_every_case_once(self, rng):
        dates = np.datetime64("2015-01-01") + np.arange(0, 360, 3)
        h = horizon_by_name("week2")
        summer = stratum_mask(dates, h, "summer", "any")
        winter = stratum_mask(dates, h, "winter", "any")
        assert np.array_equal(summer ^ winter, np.ones(len(dates), dtype=bool))

    def test_nao_filter_matches_brute_force(self, rng):
        dates = np.datetime64("2015-01-01") + np.arange(0, 360, 7)
        h = horizon_by_name("week3")
        entries = {(2015, m): float(v) for m, v in enumerate(rng.normal(0, 0.6, 12), start=1)}
        entries[(2016, 1)] = 0.0
        nao = NaoIndex(entries)
        pos = stratum_mask(dates, h, "all", "positive", nao)
        neg = stratum_mask(dates, h, "all", "negative", nao)
        for i, issue in enumerate(dates):
            y, m = majority_month(issue, h)
            v = entries[(y, m)]
            assert pos[i] == (v > 0.4)
            assert neg[i] == (v < -0.4)

    @given(
        days=st.lists(st.integers(0, 3 * 365), min_size=1, max_size=40),
        h_index=st.integers(0, len(CANONICAL_HORIZONS) - 1),
        season=st.sampled_from(["all", "summer", "winter"]),
        nao_condition=st.sampled_from(["any", "positive", "negative"]),
        nao_months=st.dictionaries(st.integers(0, 40), st.floats(-1.5, 1.5), max_size=40),
    )
    @example(days=[85, 86], h_index=0, season="all", nao_condition="positive", nao_months={2: 0.5, 3: 0.5})
    @example(days=[82], h_index=6, season="winter", nao_condition="negative", nao_months={2: -0.5})
    @example(days=[82], h_index=6, season="all", nao_condition="positive", nao_months={3: 0.5})
    @settings(max_examples=150, deadline=None)
    def test_vectorised_mask_matches_majority_month_loop(self, days, h_index, season, nao_condition, nao_months):
        # day 0 is 2015-01-01, so 85/86 are 2015-03-27/28 and 82 is 2015-03-24;
        # months count from 2015-01, and months outside the dictionary have no NAO value
        dates = np.datetime64("2015-01-01") + np.array(days)
        h = CANONICAL_HORIZONS[h_index]
        nao = NaoIndex({(2015 + m // 12, m % 12 + 1): v for m, v in nao_months.items()})
        expected = np.ones(len(dates), dtype=bool)
        for i, issue in enumerate(dates):
            year, month = majority_month(issue, h)
            value = nao.value(year, month)
            if season != "all" and season_of_month(month) != season:
                expected[i] = False
            elif nao_condition != "any" and (
                value is None or not (value > 0.4 if nao_condition == "positive" else value < -0.4)
            ):
                expected[i] = False
        assert np.array_equal(stratum_mask(dates, h, season, nao_condition, nao), expected)

    def test_nao_required_when_filtering(self):
        with pytest.raises(InputError):
            stratum_mask(np.array([np.datetime64("2015-01-01")]), horizon_by_name("week1"), "all", "positive")


class TestBootstrap:
    def test_constant_scores_have_zero_se(self):
        (res,) = bootstrap_spread(np.full(50, 3.3), np.full(50, 6.6), n_boot=200, seed=1)
        assert res.se == 0.0
        assert res.lower == res.upper == pytest.approx(0.5)

    def test_bernoulli_se_matches_analytic(self, rng):
        # against a climatology of ones the fCRPSS is 1 - mean(f), with the SE of the mean
        p, n = 0.3, 400
        data = (rng.random(n) < p).astype(float)
        (res,) = bootstrap_spread(data, np.ones(n), n_boot=1000, seed=2)
        analytic = np.sqrt(data.mean() * (1 - data.mean()) / n)
        assert abs(res.se - analytic) / analytic < 0.15

    def test_fixed_seed_reproducible(self, rng):
        f, c = rng.gamma(1, 0.5, (2, 100))
        r1 = bootstrap_spread(f, c + 0.1, n_boot=500, seed=42)
        r2 = bootstrap_spread(f, c + 0.1, n_boot=500, seed=42)
        assert r1 == r2

    @pytest.mark.parametrize("n", [7, 522, 11_484])
    def test_blocked_draws_equal_one_call(self, monkeypatch, n):
        # 1,000 replicates in blocks of 3 (333 blocks and a last one of 1) draw the same
        # indices as one (n_boot, n) call, so each replicate sums the same cases
        from inflowcast import verification

        monkeypatch.setattr(verification, "_BLOCK_DRAWS", 3 * n)
        col = np.random.default_rng(n).random(n)
        sums = replicate_sums(col[:, None], 1000, np.random.default_rng(9))
        rows = np.random.default_rng(9).integers(0, n, size=(1000, n))
        assert np.array_equal(sums[:, 0], col[rows].sum(axis=1))

    def test_generator_left_as_after_one_call(self):
        # a group's draws leave the generator where one (n_boot, n) call would, so later groups match too
        blocked, one_call = np.random.default_rng(4), np.random.default_rng(4)
        replicate_sums(np.ones((1044, 2)), 1001, blocked)
        one_call.integers(0, 1044, size=(1001, 1044))
        assert np.array_equal(blocked.integers(0, 10**9, 5), one_call.integers(0, 10**9, 5))

    @given(
        n=st.integers(20, 120),
        n_boot=st.integers(2, 300),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_call_matches_row_loop(self, n, n_boot, data_seed, seed):
        gen = np.random.default_rng(data_seed)
        f, g = gen.gamma(1.0, 0.5, n), gen.gamma(1.0, 0.7, n)
        c = gen.gamma(1.0, 1.0, n) + 0.1

        def loop_se(statistic, *columns):
            rows = np.random.default_rng(seed).integers(0, n, size=(n_boot, n))
            return np.array([statistic(*(x[row] for x in columns)) for row in rows]).std(ddof=1)

        def fcrpss_row(f, c):
            return 1.0 - f.mean() / c.mean()

        vec = bootstrap_spread(np.column_stack([f, g]), c, n_boot=n_boot, seed=seed)
        for res, scores in zip(vec, (f, g)):  # both forecasts resampled with the same draws
            assert_allclose(res.se, loop_se(fcrpss_row, scores, c), rtol=1e-12, atol=0)
            assert res.estimate == pytest.approx(fcrpss_row(scores, c), rel=1e-12)
        mean_se = (replicate_sums(f[:, None], n_boot, np.random.default_rng(seed))[:, 0] / n).std(ddof=1)
        assert_allclose(mean_se, loop_se(np.mean, f), rtol=1e-12, atol=0)

    def test_skill_report_understaffed_returns_none(self):
        assert skill_report({"inflow_emos": np.ones(5)}, np.ones(5), "Forecast Week 1") == []

    def test_skill_report_fields(self, rng):
        f = rng.gamma(1, 0.5, 200)
        c = rng.gamma(1, 1.0, 200) + 0.3
        [(variable, rep)] = skill_report({"inflow_emos": f}, c, "Forecast Week 1", n_boot=400, seed=3)
        assert variable == "inflow_emos"
        assert rep.fcrpss == fcrpss(f, c)
        assert rep.spread == pytest.approx(2 * rep.se)
        assert rep.skill_class == classify_skill(rep.fcrpss)
        assert rep.n_cases == 200
        assert rep.spread_method == "bootstrap_2se"

    def test_skill_reports_share_draws(self, rng):
        # one kernel call for two forecasts gives each, bit for bit, the report of its own call
        f, g = rng.gamma(1, 0.5, (2, 80))
        c = rng.gamma(1, 1.0, 80) + 0.3
        both = skill_report({"a": f, "b": g}, c, "Forecast Week 1", n_boot=300, seed=5)
        alone = [skill_report({name: x}, c, "Forecast Week 1", n_boot=300, seed=5)[0] for name, x in (("a", f), ("b", g))]
        assert both == alone
