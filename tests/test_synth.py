import numpy as np
import pytest
from numpy.testing import assert_allclose

from inflowcast.errors import InputError
from inflowcast.synth import (
    ScenarioConfig,
    generate_scenario,
    issue_dates_for,
    member_weight,
    simulate_telemetry,
)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(InputError):
            ScenarioConfig(n_members=1)
        with pytest.raises(InputError):
            ScenarioConfig(skill_half_life=-1.0)
        with pytest.raises(InputError):
            ScenarioConfig(seasonal_amplitude=1.2)

    @pytest.mark.parametrize("field", ["skill_half_life", "noise_sd", "seasonal_amplitude"])
    def test_nan_rejected(self, field):
        with pytest.raises(InputError):
            ScenarioConfig(**{field: float("nan")})

    def test_member_weight_halves_at_half_life(self):
        assert member_weight(10, 10.0) == pytest.approx(0.5)
        assert member_weight(20, 10.0) == pytest.approx(0.25)
        assert_allclose(member_weight([1, 5], None), 1.0)


class TestIssues:
    def test_twice_weekly_mondays_and_thursdays(self):
        issues = issue_dates_for(2015, 1)
        weekdays = {(d.astype("int64") - 4) % 7 for d in issues}
        assert weekdays == {0, 3}
        assert 100 <= len(issues) <= 106


class TestScenario:
    def test_deterministic_for_fixed_seed(self):
        a = generate_scenario(ScenarioConfig(n_years=2, seed=5))
        b = generate_scenario(ScenarioConfig(n_years=2, seed=5))
        assert np.array_equal(a.inflow.values, b.inflow.values)
        assert np.array_equal(a.precip.values, b.precip.values)
        assert len(a.forecasts) == len(b.forecasts)
        for fa, fb in zip(a.forecasts, b.forecasts):
            assert fa.issue_date == fb.issue_date
            assert np.array_equal(fa.members, fb.members)

    def test_different_seed_differs(self):
        a = generate_scenario(ScenarioConfig(n_years=2, seed=5))
        b = generate_scenario(ScenarioConfig(n_years=2, seed=6))
        assert not np.array_equal(a.inflow.values, b.inflow.values)

    def test_negative_inflows_constructible(self):
        sc = generate_scenario(ScenarioConfig(n_years=3, seed=2, drift=0.3, noise_sd=0.15))
        assert (sc.inflow.values < 0).any()

    def test_no_negative_inflows_without_drift(self):
        sc = generate_scenario(ScenarioConfig(n_years=2, seed=2, drift=0.0, noise_sd=0.0))
        assert (sc.inflow.values >= 0).all()

    def test_normalisation(self):
        sc = generate_scenario(ScenarioConfig(n_years=3, seed=4))
        assert abs(sc.inflow.values.mean() - 1.0) < 1e-9

    def test_members_nonnegative_and_shaped(self):
        cfg = ScenarioConfig(n_years=2, seed=7)
        sc = generate_scenario(cfg)
        for f in sc.forecasts[:20]:
            assert f.members.shape == (cfg.n_members, cfg.lead_days)
            assert (f.members >= 0).all()

    def test_correlation_decay_matches_half_life(self):
        # hold the season fixed (amplitude 0) so the anomaly correlation is measured
        cfg = ScenarioConfig(n_years=10, seed=3, seasonal_amplitude=0.0)
        sc = generate_scenario(cfg)
        day0 = sc.precip.dates[0]
        n = len(sc.forecasts)
        for lead in (1, 10, 25, 40):
            target = member_weight(lead, cfg.skill_half_life)
            ms = np.empty(n)
            ts = np.empty(n)
            for i, f in enumerate(sc.forecasts):
                idx = int((np.datetime64(f.issue_date) - day0) / np.timedelta64(1, "D")) + lead
                ms[i] = f.members[i % cfg.n_members, lead - 1]
                ts[i] = sc.precip.values[idx]
            r = np.corrcoef(ms, ts)[0, 1]
            assert abs(r - target) < 3.0 / np.sqrt(n)

    def test_perfect_ensemble_limit(self):
        cfg = ScenarioConfig(n_years=2, seed=9, skill_half_life=None)
        sc = generate_scenario(cfg)
        day0 = sc.precip.dates[0]
        f = sc.forecasts[10]
        idx = int((np.datetime64(f.issue_date) - day0) / np.timedelta64(1, "D")) + np.arange(1, cfg.lead_days + 1)
        truth = sc.precip.values[idx]
        for k in range(cfg.n_members):
            assert_allclose(f.members[k], truth, rtol=1e-12)

    def test_no_information_limit(self):
        # a vanishing half-life drives the member-truth correlation to zero
        cfg = ScenarioConfig(n_years=4, seed=11, skill_half_life=1e-9, seasonal_amplitude=0.0)
        sc = generate_scenario(cfg)
        day0 = sc.precip.dates[0]
        ms, ts = [], []
        for f in sc.forecasts:
            idx = int((np.datetime64(f.issue_date) - day0) / np.timedelta64(1, "D")) + 1
            ms.append(f.members[0, 0])
            ts.append(sc.precip.values[idx])
        r = np.corrcoef(ms, ts)[0, 1]
        assert abs(r) < 3.0 / np.sqrt(len(ms))

    def test_lognormal_marginal_option(self):
        cfg = ScenarioConfig(n_years=3, seed=8, marginal="lognormal", seasonal_amplitude=0.0)
        sc = generate_scenario(cfg)
        assert (sc.precip.values > 0).all()
        # mean matches the gamma option's target; skewness reflects the heavier family
        assert abs(sc.precip.values.mean() - cfg.precip_mean) < 0.4
        for f in sc.forecasts[:10]:
            assert (f.members > 0).all()
        with pytest.raises(InputError):
            ScenarioConfig(marginal="weibull")

    def test_lognormal_members_track_truth_in_log_space(self):
        cfg = ScenarioConfig(n_years=6, seed=8, marginal="lognormal", seasonal_amplitude=0.0)
        sc = generate_scenario(cfg)
        day0 = sc.precip.dates[0]
        lead = 5
        target = member_weight(lead, cfg.skill_half_life)
        ms, ts = [], []
        for f in sc.forecasts:
            idx = int((np.datetime64(f.issue_date) - day0) / np.timedelta64(1, "D")) + lead
            ms.append(np.log(f.members[0, lead - 1]))
            ts.append(np.log(sc.precip.values[idx]))
        r = np.corrcoef(ms, ts)[0, 1]
        assert abs(r - target) < 3.0 / np.sqrt(len(ms))

    def test_nao_index_covers_scenario_months(self):
        cfg = ScenarioConfig(n_years=2, start_year=2011, seed=1)
        sc = generate_scenario(cfg)
        for year in (2011, 2012):
            for month in range(1, 13):
                assert sc.nao.value(year, month) is not None


class TestSimulatedTelemetry:
    def test_deterministic(self):
        a = simulate_telemetry(n_hours=48, seed=3)
        b = simulate_telemetry(n_hours=48, seed=3)
        assert np.array_equal(a.telemetry.power, b.telemetry.power)
        assert np.array_equal(a.true_inflow, b.true_inflow)

    def test_power_has_off_hours(self):
        sim = simulate_telemetry(n_hours=72, seed=1)
        assert (sim.telemetry.power == 0).any()
        assert (sim.telemetry.power > 0).any()

    def test_levels_inside_storage_curve(self):
        sim = simulate_telemetry(n_hours=24 * 14, seed=2)
        curve = sim.curves.storage
        assert sim.telemetry.water_level.min() >= curve.level_axis[0]
        assert sim.telemetry.water_level.max() <= curve.level_axis[-1]
