import dataclasses
import datetime as dt
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from inflowcast.data import (
    CANONICAL_HORIZONS,
    EnsemblePrecipForecast,
    build_climatology,
    horizon_average,
    horizon_by_name,
    observed_horizon_mean,
)
from inflowcast import pipeline
from inflowcast.costmodel import optimal_adjustments
from inflowcast.errors import InputError
from inflowcast.pipeline import (
    HorizonCaseTable,
    TrainedModels,
    build_case_tables,
    build_cost_cases,
    climatology_scores,
    CostSettings,
    FORECAST_HEADER,
    forecast_rows,
    predict_params,
    train_models,
    training_tables,
    verify_skill,
)
from inflowcast.regression import WEEK1, fit_week1_regression
from inflowcast.series import DailySeries, year_of
from inflowcast.verification import fair_crps_sample
from inflowcast.zaga import ZagaDistribution

HORIZONS = (horizon_by_name("week1"), horizon_by_name("week2"), horizon_by_name("2week"))


@pytest.fixture(scope="module")
def trained(scenario5):
    tables = build_case_tables(scenario5.forecasts, scenario5.inflow, HORIZONS, reanalysis=scenario5.precip)
    models = train_models(tables, HORIZONS, seed=3)
    predictions = predict_params(models, tables)
    return scenario5, tables, models, predictions


def gappy_series(gen, days, n_gaps):
    keep = np.ones(len(days), dtype=bool)
    for start in gen.integers(0, len(days), n_gaps):
        keep[start : start + gen.integers(1, 60)] = False  # unobserved spells
    return DailySeries(days[keep], gen.normal(1.0, 1.0, keep.sum()))


def observed_or_nan(series, issue_date, horizon):
    mean = observed_horizon_mean(series, issue_date, horizon)
    return np.nan if mean is None else mean


class TestCaseTables:
    """``build_case_tables`` against a per-issue ``horizon_average`` / ``observed_horizon_mean`` loop."""

    @given(
        data_seed=st.integers(0, 2**32 - 1),
        h_indices=st.lists(st.integers(0, len(CANONICAL_HORIZONS) - 1), min_size=1, unique=True),
        n_issues=st.integers(1, 40),
        n_members=st.integers(2, 4),
        min_lead=st.sampled_from([30, 42]),
        n_gaps=st.integers(0, 8),
        with_reanalysis=st.booleans(),
        stack=st.sampled_from([1, 3, 7, pipeline._STACK_ISSUES]),  # issues stacked at a time
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_per_issue_loop(
        self, data_seed, h_indices, n_issues, n_members, min_lead, n_gaps, with_reanalysis, stack
    ):
        gen = np.random.default_rng(data_seed)
        horizons = tuple(CANONICAL_HORIZONS[i] for i in h_indices)
        days = np.arange(np.datetime64("2009-11-01"), np.datetime64("2012-03-01"))
        inflow = gappy_series(gen, days, n_gaps)
        reanalysis = gappy_series(gen, days, n_gaps) if with_reanalysis else None
        issue_days = gen.choice(days[: -50], n_issues, replace=False)  # a random subset, unsorted
        issues = [
            EnsemblePrecipForecast(
                day.astype(dt.date), gen.gamma(1.0, 2.0, (n_members, gen.integers(min_lead, 47)))
            )
            for day in issue_days
        ]

        ordered = sorted(issues, key=lambda f: f.issue_date)
        try:
            members = {h.name: np.stack([horizon_average(f, h) for f in ordered]) for h in horizons}
        except InputError as exc:  # an issue is shorter than a horizon
            with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                build_case_tables(issues, inflow, horizons, reanalysis=reanalysis)
            return
        with mock.patch.object(pipeline, "_STACK_ISSUES", stack):
            tables = build_case_tables(issues, inflow, horizons, reanalysis=reanalysis)

        dates = np.array([np.datetime64(f.issue_date, "D") for f in ordered])
        assert list(tables) == [h.name for h in horizons]
        for h in horizons:
            table = tables[h.name]
            inflow_obs = np.array([observed_or_nan(inflow, d, h) for d in dates])
            precip_obs = np.array([observed_or_nan(reanalysis, d, h) if reanalysis else np.nan for d in dates])
            expected = (dates, np.array([year_of(d) for d in dates]), members[h.name], inflow_obs, precip_obs)
            got = (table.issue_dates, table.issue_years, table.member_matrix, table.obs_inflow, table.obs_precip)
            for want, have in zip(expected, got):
                assert (have.dtype, have.shape) == (want.dtype, want.shape)
                assert have.tobytes() == want.tobytes()


class TestFoldRegressions:
    @pytest.mark.parametrize("member_wise", [True, False])
    def test_equal_to_fit_on_per_issue_pairs(self, scenario5, monkeypatch, member_wise):
        dates = scenario5.inflow.dates
        # random gaps, and a year without one observed window, which still counts as a training year
        keep = np.random.default_rng(8).random(len(dates)) > 0.02
        keep &= dates.astype("datetime64[Y]") != np.datetime64("2011")
        inflow = DailySeries(dates[keep], scenario5.inflow.values[keep])
        # trained on Forecast Week 2 only: the Week-1 table is built too, in the one call for both tables
        built = []
        monkeypatch.setattr(pipeline, "build_case_tables", lambda *a: built.append(a[2]) or build_case_tables(*a))
        week2 = (horizon_by_name("week2"),)
        models = train_models(training_tables(scenario5.forecasts, inflow, week2), week2, member_wise=member_wise, n_starts=1)
        assert built == [(horizon_by_name("week2"), WEEK1)]
        issues = sorted(scenario5.forecasts, key=lambda f: f.issue_date)
        years = [year_of(f.issue_date) for f in issues]
        assert sorted(models.regressions) == sorted(set(years))
        assert 2011 in set(years)
        for fold_year, model in models.regressions.items():
            x, y = [], []
            for f, year in zip(issues, years):
                obs = observed_horizon_mean(inflow, f.issue_date, WEEK1)
                if year in (fold_year, fold_year + 1) or obs is None:
                    continue
                means = horizon_average(f, WEEK1)
                x.extend(means.tolist() if member_wise else [float(means.mean())])
                y.extend([obs] * (len(means) if member_wise else 1))
            training_years = set(years) - {fold_year, fold_year + 1}
            assert model == fit_week1_regression(x, y, training_years)
            assert not {fold_year, fold_year + 1} & model.training_years


class TestTraining:
    def test_one_model_per_horizon_and_fold(self, trained):
        scenario, tables, models, _ = trained
        years = sorted(models.regressions)
        assert len(years) == 5
        assert set(models.emos) == {(h.name, y) for h in HORIZONS for y in years}

    def test_emos_models_trained_out_of_fold(self, trained):
        scenario, tables, models, _ = trained
        for (hname, fold_year), model in models.emos.items():
            table = tables[hname]
            in_fold = ((table.issue_years == fold_year) | (table.issue_years == fold_year + 1)).sum()
            assert model.n_cases <= len(table) - in_fold

    def test_offsets_cover_training_negatives(self, trained):
        scenario, tables, models, _ = trained
        for (hname, fold_year), model in models.emos.items():
            table = tables[hname]
            mask = (
                ~np.isnan(table.obs_inflow)
                & (table.issue_years != fold_year)
                & (table.issue_years != fold_year + 1)
            )
            min_train = table.obs_inflow[mask].min()
            assert model.offset >= max(0.0, -min_train) - 1e-12

    def test_serialisation_round_trip(self, trained):
        scenario, tables, models, predictions = trained
        clone = TrainedModels.from_dict(models.to_dict())
        pred2 = predict_params(clone, tables)
        for h in HORIZONS:
            assert_allclose(predictions[h.name].dist.mu, pred2[h.name].dist.mu, rtol=1e-12)
            assert_allclose(predictions[h.name].dist.nu, pred2[h.name].dist.nu, rtol=1e-12)


class TestPrediction:
    def test_every_case_predicted(self, trained):
        _, tables, _, predictions = trained
        for h in HORIZONS:
            dist = predictions[h.name].dist
            assert np.all(np.isfinite(dist.mu))
            assert np.all(dist.sigma > 0)
            assert np.all((dist.nu >= 0) & (dist.nu < 1))

    def test_quantile_rows_match_distributions(self, trained):
        _, tables, models, predictions = trained
        columns = forecast_rows(models, tables, predictions)
        n_expected = sum(len(tables[h.name]) for h in HORIZONS)
        assert [len(column) for column in columns] == [n_expected] * len(FORECAST_HEADER)
        row = [column[7] for column in columns]
        h = horizon_by_name(row[1])
        table = tables[h.name]
        i = 7 % len(table)
        pred = predictions[h.name].dist
        dist = ZagaDistribution(pred.mu[i], pred.sigma[i], pred.nu[i], pred.offset[i])
        assert_allclose(row[2], dist.quantile(0.05), rtol=1e-10)
        assert_allclose(row[4], dist.quantile(0.5), rtol=1e-10)

    def test_quantiles_monotone_across_levels(self, trained):
        _, tables, _, predictions = trained
        q = predictions[HORIZONS[0].name].dist.quantile([0.05, 0.25, 0.5, 0.75, 0.95])
        assert np.all(np.diff(q, axis=1) >= -1e-12)


@pytest.fixture(scope="module")
def report(trained):
    scenario, tables, models, predictions = trained
    return verify_skill(
        models,
        tables,
        predictions,
        nao=scenario.nao,
        reanalysis=scenario.precip,
        n_boot=150,
        seed=0,
    )


class TestClimatologyMask:
    """The per-(month, year) mask over the case table against ``build_climatology``."""

    @given(
        data_seed=st.integers(0, 2**32 - 1),
        h_index=st.integers(0, len(CANONICAL_HORIZONS) - 1),
        n_years=st.integers(3, 6),
        issue_share=st.floats(0.05, 1.0),
        n_gaps=st.integers(0, 12),
        min_years=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_samples_and_unusable_groups(self, data_seed, h_index, n_years, issue_share, n_gaps, min_years):
        gen = np.random.default_rng(data_seed)
        h = CANONICAL_HORIZONS[h_index]
        days = np.arange(np.datetime64("2009-01-01"), np.datetime64(f"{2009 + n_years}-02-15"))
        series = gappy_series(gen, days, n_gaps)
        issues = days[: -h.end_day][::3]
        issues = issues[gen.random(len(issues)) < issue_share]
        obs = np.array([observed_or_nan(series, d, h) for d in issues])
        years = issues.astype("datetime64[Y]").astype(int) + 1970
        table = HorizonCaseTable(h, issues, years, np.zeros((len(issues), 2)), obs, np.full(len(issues), np.nan))

        samples = []

        def record(sample, observations):
            samples.append(np.sort(sample))
            return len(samples) - 1

        group = climatology_scores(table, obs, record, min_years)
        crps = climatology_scores(table, obs, fair_crps_sample, min_years) if min_years >= 2 else None
        reference = {}
        for i in range(len(issues)):
            month = int(issues[i].astype("datetime64[M]").astype(int)) % 12 + 1
            if np.isnan(obs[i]):
                assert np.isnan(group[i])
                continue
            key = (month, int(years[i]))
            if key not in reference:
                try:
                    reference[key] = build_climatology(series, h, month, key[1], issues, min_years).values
                except InputError:
                    reference[key] = None
            if reference[key] is None:
                assert np.isnan(group[i])
                continue
            assert np.array_equal(samples[int(group[i])], np.sort(reference[key]))
            if crps is not None:
                assert crps[i] == fair_crps_sample(reference[key], np.array([obs[i]]))[0]


class TestVerification:
    def test_reports_for_all_horizons_and_variables(self, report):
        for h in HORIZONS:
            for var in ("inflow_emos", "inflow_benchmark", "precip_ensemble"):
                assert report.lookup(var, h.name) is not None

    def test_week1_beats_week2(self, report):
        w1 = report.lookup("inflow_emos", "Forecast Week 1").fcrpss
        w2 = report.lookup("inflow_emos", "Forecast Week 2").fcrpss
        assert w1 > w2

    def test_seasonal_strata_present(self, report):
        assert report.lookup("inflow_emos", "Forecast Week 1", "summer") is not None
        assert report.lookup("inflow_emos", "Forecast Week 1", "winter") is not None

    def test_reliability_close_to_diagonal(self, report):
        diagram = report.reliability["Forecast Week 1"]
        assert np.abs(diagram.coverage - diagram.levels).max() < 0.12

    def test_serialisable(self, report):
        import json

        payload = json.dumps(report.to_dict())
        assert "fcrpss" in payload


class TestSkillLimits:
    """Perfect-ensemble and no-information limits of the full pipeline."""

    @staticmethod
    def _week1_report(half_life):
        from inflowcast.synth import ScenarioConfig, generate_scenario

        scenario = generate_scenario(ScenarioConfig(n_years=5, seed=77, skill_half_life=half_life))
        horizons = (horizon_by_name("week1"), horizon_by_name("week2"))
        tables = build_case_tables(scenario.forecasts, scenario.inflow, horizons)
        models = train_models(tables, horizons, seed=1)
        predictions = predict_params(models, tables)
        rep = verify_skill(
            models, tables, predictions,
            n_boot=300, seed=2,
        )
        return [rep.lookup("inflow_emos", h.name) for h in horizons]

    def test_perfect_ensemble_has_significant_week1_skill(self):
        week1, _ = self._week1_report(half_life=None)
        assert week1.fcrpss - 2 * week1.se > 0
        assert week1.fcrpss > 0.3

    def test_pure_climatology_has_no_significant_skill(self):
        for rep in self._week1_report(half_life=1e-9):
            assert rep.fcrpss <= 2 * rep.se


class TestCostCases:
    def test_sample_median_is_numpys_bit_for_bit(self, rng):
        from inflowcast.pipeline import _sample_median

        for n in range(1, 41):
            for scale in (1e-3, 1.0, 1e3):
                sample = rng.normal(0.5, 1.0, n) * scale
                assert _sample_median(sample, None).tobytes() == np.median(sample).tobytes()

    def test_envelopes_scaled_by_horizon_length(self, trained):
        scenario, tables, models, predictions = trained
        settings = CostSettings(energy_per_inflow_day=10.0)
        cases = build_cost_cases(
            models, tables, predictions,
            settings,
        )
        assert len(cases)
        env = cases.envelope
        for name, epi in (("Forecast Week 1", 70.0), ("2 Week Forecast", 140.0)):
            rows = cases.horizons == name
            assert rows.any()
            assert_allclose(env.energy_per_inflow[rows], epi)
        # horizons come in the order of the models, each in issue order
        assert list(dict.fromkeys(cases.horizons.tolist())) == [h.name for h in models.horizons]
        for name in dict.fromkeys(cases.horizons.tolist()):
            assert np.all(np.diff(cases.issue_dates[cases.horizons == name]) > np.timedelta64(0, "D"))
        assert_allclose(env.clim_generation, cases.climatological * env.energy_per_inflow, rtol=1e-12)
        # every column is aligned with the cases
        columns = (cases.observed_inflow, cases.climatological, cases.deterministic, cases.probabilistic.mu)
        assert {len(column) for column in columns} == {len(cases)}
        # the batched medians are bitwise those of the per-case distributions
        d = cases.probabilistic
        assert all(
            cases.deterministic[i] == ZagaDistribution(d.mu[i], d.sigma[i], d.nu[i], d.offset[i]).quantile(0.5)
            for i in range(len(cases))
        )

    def test_no_horizons_give_an_empty_table(self, trained):
        _, tables, models, predictions = trained
        models = dataclasses.replace(models, horizons=())
        cases = build_cost_cases(models, tables, predictions, CostSettings())
        assert len(cases) == 0
        assert cases.issue_dates.dtype == np.dtype("datetime64[D]")
        assert optimal_adjustments(cases, "probabilistic").shape == (0,)
