import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inflowcast import regression
from inflowcast.data import EnsemblePrecipForecast, horizon_by_name
from inflowcast.errors import InputError, LeakageError
from inflowcast.pipeline import build_case_tables
from inflowcast.regression import (
    WEEK1,
    build_training_pairs,
    fit_week1_regression,
    generate_benchmark,
    run_cross_validation,
)
from inflowcast.series import DailySeries, year_of


def week1_table(issues, inflow):
    return build_case_tables(issues, inflow, (WEEK1,))[WEEK1.name]


class TestFit:
    def test_exact_line_recovered(self, rng):
        x = rng.uniform(0, 10, 50)
        y = 2.0 * x + 1.0
        model = fit_week1_regression(x, y, [2009, 2010])
        assert_allclose(model.slope, 2.0, atol=1e-10)
        assert_allclose(model.intercept, 1.0, atol=1e-10)

    def test_degenerate_precip_rejected(self):
        with pytest.raises(InputError):
            fit_week1_regression(np.full(40, 3.0), np.arange(40.0), [2009])

    def test_matches_normal_equations_oracle(self, rng):
        x = rng.uniform(0, 10, 200)
        y = 1.5 * x - 0.7 + rng.normal(0, 0.5, 200)
        model = fit_week1_regression(x, y, [2009])
        # closed-form normal equations oracle
        xm = np.column_stack([np.ones(200), x])
        beta = np.linalg.solve(xm.T @ xm, xm.T @ y)
        assert_allclose(model.intercept, beta[0], rtol=1e-9)
        assert_allclose(model.slope, beta[1], rtol=1e-9)

    def test_minimum_pairs_enforced(self, rng):
        with pytest.raises(InputError):
            fit_week1_regression(rng.uniform(0, 1, 10), rng.normal(size=10), [2009])

    def test_affine_equivariance(self, rng):
        x = rng.uniform(0, 10, 100)
        y = 0.8 * x + 0.1 + rng.normal(0, 0.2, 100)
        m1 = fit_week1_regression(x, y, [2009])
        c = 3.7
        m2 = fit_week1_regression(c * x, y, [2009])
        assert_allclose(m2.slope, m1.slope / c, rtol=1e-9)
        assert_allclose(m2.predict(c * x), m1.predict(x), rtol=1e-9)


class TestGenerateBenchmark:
    def _forecast(self, members, year=2015):
        return EnsemblePrecipForecast(dt.date(year, 6, 1), members)

    def test_identity_model(self, rng):
        from inflowcast.regression import LinearInflowModel

        f = self._forecast(rng.gamma(1.0, 2.0, (4, 46)))
        model = LinearInflowModel(1.0, 0.0, frozenset({2010, 2011}), 100)
        h = horizon_by_name("week2")
        bench = generate_benchmark(f, h, model)
        from inflowcast.data import horizon_average

        assert_allclose(bench.members, horizon_average(f, h), rtol=1e-12)

    def test_constant_members(self):
        from inflowcast.regression import LinearInflowModel

        f = self._forecast(np.full((3, 46), 2.0))
        model = LinearInflowModel(0.5, 0.3, frozenset({2010}), 100)
        bench = generate_benchmark(f, horizon_by_name("week1"), model)
        assert_allclose(bench.members, 0.5 * 2.0 + 0.3)

    def test_per_member_formula_oracle(self, rng):
        from inflowcast.data import horizon_average
        from inflowcast.regression import LinearInflowModel

        f = self._forecast(rng.gamma(1.0, 2.0, (11, 46)))
        model = LinearInflowModel(-0.4, 1.9, frozenset({2009}), 100)
        h = horizon_by_name("3week")
        bench = generate_benchmark(f, h, model)
        means = horizon_average(f, h)
        for k in range(11):
            assert_allclose(bench.members[k], -0.4 * means[k] + 1.9, rtol=1e-12)

    def test_leakage_guard(self, rng):
        from inflowcast.regression import LinearInflowModel

        f = self._forecast(rng.gamma(1.0, 2.0, (3, 46)), year=2015)
        for bad_year in (2015, 2016):
            model = LinearInflowModel(1.0, 0.0, frozenset({2012, bad_year}), 100)
            with pytest.raises(LeakageError):
                generate_benchmark(f, horizon_by_name("week1"), model)

    def test_member_ordering_preserved(self, rng):
        from inflowcast.data import horizon_average
        from inflowcast.regression import LinearInflowModel

        f = self._forecast(rng.gamma(1.0, 2.0, (7, 46)))
        model = LinearInflowModel(0.9, -0.1, frozenset({2009}), 100)
        h = horizon_by_name("week1")
        bench = generate_benchmark(f, h, model)
        order_precip = np.argsort(horizon_average(f, h))
        order_inflow = np.argsort(bench.members)
        assert np.array_equal(order_precip, order_inflow)


class TestCrossValidation:
    def test_fold_exclusion_and_leakage_guard(self, scenario5):
        models = run_cross_validation(week1_table(scenario5.forecasts, scenario5.inflow))
        years = sorted(models)
        assert len(years) == 5
        for fold_year, model in models.items():
            assert fold_year not in model.training_years
            assert fold_year + 1 not in model.training_years
        for f in scenario5.forecasts:  # the leakage guard accepts every issue's own fold model
            generate_benchmark(f, WEEK1, models[year_of(np.datetime64(f.issue_date))])

    def test_identical_years_give_identical_models(self, monkeypatch):
        # replicate one synthetic year of data across five years
        rng = np.random.default_rng(0)
        base_members = rng.gamma(1.0, 3.0, (60, 3, 46))
        issues = []
        inflow_dates, inflow_vals = [], []
        base_inflow = rng.gamma(2.0, 0.5, 366 + 60)
        for year in range(2009, 2014):
            start = dt.date(year, 1, 1)
            for i in range(60):
                issues.append(
                    EnsemblePrecipForecast(start + dt.timedelta(days=3 * i), base_members[i])
                )
            days = np.arange(
                np.datetime64(f"{year}-01-01"), np.datetime64(f"{year}-01-01") + (366 + 60)
            )
            # clip to avoid overlapping the next replica
            keep = days < np.datetime64(f"{year + 1}-01-01")
            inflow_dates.extend(days[keep])
            inflow_vals.extend(base_inflow[: keep.sum()])
        inflow = DailySeries(np.array(inflow_dates), inflow_vals)
        monkeypatch.setattr(regression, "MIN_PAIRS", 20)
        models = run_cross_validation(week1_table(issues, inflow))
        # every fold sees the same pair multiset up to replication, and
        # replicating pairs leaves least squares unchanged
        slopes = [m.slope for m in models.values()]
        intercepts = [m.intercept for m in models.values()]
        assert_allclose(slopes, slopes[0], rtol=1e-9)
        assert_allclose(intercepts, intercepts[0], rtol=1e-9)

    def test_fold_assembly_matches_filter_oracle(self, scenario5):
        models = run_cross_validation(week1_table(scenario5.forecasts, scenario5.inflow))
        all_years = sorted({year_of(np.datetime64(f.issue_date)) for f in scenario5.forecasts})
        for fold_year, model in models.items():
            expected = {y for y in all_years if y not in (fold_year, fold_year + 1)}
            assert model.training_years == expected

    def test_insufficient_years_rejected(self, rng):
        issues = [
            EnsemblePrecipForecast(dt.date(2015, 1, 1) + dt.timedelta(days=7 * i), rng.gamma(1, 2, (3, 46)))
            for i in range(30)
        ]
        dates = np.arange(np.datetime64("2015-01-01"), np.datetime64("2016-06-01"))
        inflow = DailySeries(dates, rng.gamma(2.0, 0.5, len(dates)))
        with pytest.raises(InputError):
            run_cross_validation(week1_table(issues, inflow))


class TestTrainingPairs:
    def test_member_wise_vs_ensemble_mean_counts(self, scenario5):
        issues = scenario5.forecasts[:80]
        table = week1_table(issues, scenario5.inflow)
        rows = np.ones(len(table), dtype=bool)
        x_m, y_m = build_training_pairs(table, rows, member_wise=True)
        x_e, y_e = build_training_pairs(table, rows, member_wise=False)
        k = issues[0].n_members
        assert len(x_m) == k * len(x_e)
        # ensemble-mean pairs are the member-wise means per issue
        assert_allclose(x_m.reshape(-1, k).mean(axis=1), x_e, rtol=1e-12)
        assert np.array_equal(np.unique(y_m), np.unique(y_e))
