import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from inflowcast.data import CANONICAL_HORIZONS, build_climatology, horizon_by_name, observed_horizon_mean
from inflowcast.errors import InputError
from inflowcast.pipeline import (
    HorizonCaseTable,
    TrainedModels,
    build_case_tables,
    build_cost_cases,
    climatology_scores,
    CostSettings,
    forecast_rows,
    predict_params,
    train_models,
    verify_skill,
)
from inflowcast.series import DailySeries
from inflowcast.verification import fair_crps_sample

HORIZONS = (horizon_by_name("week1"), horizon_by_name("week2"), horizon_by_name("2week"))


@pytest.fixture(scope="module")
def trained(scenario5):
    tables = build_case_tables(scenario5.forecasts, scenario5.inflow, HORIZONS, reanalysis=scenario5.precip)
    models = train_models(scenario5.forecasts, scenario5.inflow, HORIZONS, tables=tables, seed=3)
    predictions = predict_params(models, tables)
    return scenario5, tables, models, predictions


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
            assert_allclose(predictions[h.name].mu, pred2[h.name].mu, rtol=1e-12)
            assert_allclose(predictions[h.name].nu, pred2[h.name].nu, rtol=1e-12)


class TestPrediction:
    def test_every_case_predicted(self, trained):
        _, tables, _, predictions = trained
        for h in HORIZONS:
            pred = predictions[h.name]
            assert np.all(np.isfinite(pred.mu))
            assert np.all(pred.sigma > 0)
            assert np.all((pred.nu >= 0) & (pred.nu < 1))

    def test_quantile_rows_match_distributions(self, trained):
        _, tables, models, predictions = trained
        rows = forecast_rows(models, tables, predictions)
        n_expected = sum(len(tables[h.name]) for h in HORIZONS)
        assert len(rows) == n_expected
        row = rows[7]
        h = horizon_by_name(row[1])
        table = tables[h.name]
        i = 7 % len(table)
        dist = predictions[h.name].distribution(i)
        assert_allclose(row[2], dist.quantile(0.05), rtol=1e-10)
        assert_allclose(row[4], dist.quantile(0.5), rtol=1e-10)

    def test_quantiles_monotone_across_levels(self, trained):
        _, tables, _, predictions = trained
        q = predictions[HORIZONS[0].name].quantiles([0.05, 0.25, 0.5, 0.75, 0.95])
        assert np.all(np.diff(q, axis=1) >= -1e-12)


@pytest.fixture(scope="module")
def report(trained):
    scenario, tables, models, predictions = trained
    return verify_skill(
        models,
        tables,
        predictions,
        scenario.inflow,
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
        keep = np.ones(len(days), dtype=bool)
        for start in gen.integers(0, len(days), n_gaps):
            keep[start : start + gen.integers(1, 60)] = False  # unobserved spells
        series = DailySeries(days[keep], gen.normal(1.0, 1.0, keep.sum()))
        issues = days[: -h.end_day][::3]
        issues = issues[gen.random(len(issues)) < issue_share]
        obs = np.array([np.nan if (v := observed_horizon_mean(series, d, h)) is None else v for d in issues])
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
        models = train_models(scenario.forecasts, scenario.inflow, horizons, tables=tables, seed=1)
        predictions = predict_params(models, tables)
        rep = verify_skill(
            models, tables, predictions, scenario.inflow,
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
    def test_envelopes_scaled_by_horizon_length(self, trained):
        scenario, tables, models, predictions = trained
        settings = CostSettings(energy_per_inflow_day=10.0)
        cases = build_cost_cases(
            models, tables, predictions, scenario.inflow,
            settings,
        )
        assert cases
        by_horizon = {}
        for c in cases:
            by_horizon.setdefault(c.horizon, c)
        assert by_horizon["Forecast Week 1"].envelope.energy_per_inflow == pytest.approx(70.0)
        assert by_horizon["2 Week Forecast"].envelope.energy_per_inflow == pytest.approx(140.0)
        for c in cases[:50]:
            assert c.envelope.clim_generation == pytest.approx(
                c.climatological * c.envelope.energy_per_inflow
            )
            assert c.deterministic == pytest.approx(float(c.probabilistic.quantile(0.5)))
