import datetime as dt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from inflowcast.errors import CurveDomainError, InputError
from inflowcast.series import DailySeries
from inflowcast.synth import demo_plant_curves, simulate_telemetry
from inflowcast.telemetry import (
    CleaningLimits,
    GridTable,
    StorageCurve,
    TelemetrySeries,
    aggregate_and_normalize,
    clean_telemetry,
    compute_discharge,
    constant_compensation,
    cross_correlation,
    reconstruct_net_inflow,
)


def make_telemetry(level, power, start="2015-01-01T00:00:00"):
    n = len(level)
    ts = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(3600, "s")
    return TelemetrySeries(ts, level, power)


LIMITS = CleaningLimits(
    level_bounds=(100.0, 300.0),
    power_bounds=(0.0, 1e7),
    max_level_step=1.0,
    max_power_step=2e6,
)


class TestCleaning:
    def test_bound_violation_removed(self):
        level = np.full(10, 200.0)
        power = np.full(10, 1e6)
        power[4] = 2e7  # twice plant capacity
        cleaned, report = clean_telemetry(make_telemetry(level, power), LIMITS)
        assert report.removed_indices == [4]
        assert report.reasons == ["bound:power"]
        assert len(cleaned) == 9

    def test_constant_series_untouched(self):
        t = make_telemetry(np.full(24, 200.0), np.full(24, 1e6))
        cleaned, report = clean_telemetry(t, LIMITS)
        assert report.n_removed == 0
        assert len(cleaned) == 24

    def test_single_spike_removed_exactly(self):
        level = np.full(48, 200.0) + 0.01 * np.arange(48)
        level[20] += 10.0 * LIMITS.max_level_step
        t = make_telemetry(level, np.full(48, 1e6))
        cleaned, report = clean_telemetry(t, LIMITS)
        # oracle: direct scan of the constructed series
        assert report.removed_indices == [20]
        assert report.reasons == ["spike:water_level"]
        assert len(cleaned) == 47

    def test_cleaning_idempotent(self, rng):
        level = 200.0 + np.cumsum(rng.normal(0, 0.3, 200))
        power = np.clip(rng.normal(2e6, 1e6, 200), 0, None)
        level[17] = 290.0
        power[44] += 9e6
        t = make_telemetry(level, power)
        once, _ = clean_telemetry(t, LIMITS)
        twice, report2 = clean_telemetry(once, LIMITS)
        assert report2.n_removed == 0
        assert np.array_equal(once.water_level, twice.water_level)
        assert np.array_equal(once.power, twice.power)

    def test_excessive_removal_flagged(self):
        level = np.full(10, 50.0)  # everything below the bound
        level[0] = 200.0
        t = make_telemetry(level, np.full(10, 1e6))
        _, report = clean_telemetry(t, LIMITS)
        assert report.excessive_removal

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            TelemetrySeries(np.array([], dtype="datetime64[s]"), [], [])


class TestCleaningLimits:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("level_bounds", (np.nan, 300.0), "level bounds"),
            ("level_bounds", (100.0, np.nan), "level bounds"),
            ("power_bounds", (np.nan, 1e7), "power bounds"),
            ("max_level_step", np.nan, "derivative thresholds"),
            ("max_power_step", np.nan, "derivative thresholds"),
        ],
    )
    def test_nan_rejected(self, field, value, message):
        # a NaN limit would compare false everywhere and silently stop the filter
        with pytest.raises(InputError, match=message):
            CleaningLimits(**{**vars(LIMITS), field: value})


class TestDischarge:
    def test_constants_cancel(self):
        assert_allclose(compute_discharge(981000.0, 1.0, 100.0), 1.0, rtol=1e-12)

    def test_zero_power(self):
        assert compute_discharge(0.0, 0.9, 50.0) == 0.0

    def test_formula_value(self):
        # independent evaluation: 981000 / (0.9 * 1000 * 9.81 * 50) = 20/9
        assert_allclose(compute_discharge(981000.0, 0.9, 50.0), 20.0 / 9.0, rtol=1e-12)

    @pytest.mark.parametrize("eff,head", [(0.0, 50.0), (1.2, 50.0), (0.9, 0.0), (0.9, -3.0)])
    def test_domain_errors(self, eff, head):
        with pytest.raises(ValueError):
            compute_discharge(1e6, eff, head)


class TestReconstruction:
    def test_constant_level_constant_power(self):
        curves = demo_plant_curves()
        n = 30
        t = make_telemetry(np.full(n, 200.0), np.full(n, 4e6))
        comp = constant_compensation("2015-01-01", "2015-03-01", 2.5)
        rec = reconstruct_net_inflow(t, curves, comp)
        eff = curves.efficiency.lookup(4e6, 200.0)
        head = curves.net_head.lookup(4e6, 200.0)
        expected = compute_discharge(4e6, eff, head) + 2.5
        assert_allclose(rec.values, expected, rtol=1e-12)

    def test_rising_level_zero_power(self):
        curves = demo_plant_curves()
        n = 50
        # level path chosen so volume rises by exactly 2 m3/s on the tabulated curve
        vol0 = 0.5 * (curves.storage.volume[0] + curves.storage.volume[-1])
        volume = vol0 + 2.0 * 3600.0 * np.arange(n)
        level = curves.storage.level_at_volume(volume)
        t = make_telemetry(level, np.zeros(n))
        comp = constant_compensation("2015-01-01", "2015-03-01", 0.0)
        rec = reconstruct_net_inflow(t, curves, comp)
        assert_allclose(rec.values, 2.0, rtol=1e-9)

    def test_forward_simulation_round_trip(self):
        sim = simulate_telemetry(n_hours=24 * 21, seed=3)
        rec = reconstruct_net_inflow(sim.telemetry, sim.curves, sim.compensation)
        assert not rec.skipped_indices
        assert_allclose(rec.values, sim.true_inflow, rtol=1e-6)

    def test_out_of_domain_record_skipped(self):
        curves = demo_plant_curves()
        level = np.full(30, 200.0)
        power = np.full(30, 4e6)
        power[7] = 1.05e7  # above the efficiency grid's power axis
        t = make_telemetry(level, power)
        comp = constant_compensation("2015-01-01", "2015-03-01", 0.0)
        rec = reconstruct_net_inflow(t, curves, comp)
        assert rec.skipped_indices == [7]
        assert rec.skipped_reasons == ["curve_domain"]
        assert len(rec.values) == 29

    @pytest.mark.parametrize(
        "n_inside, expected",
        [(1, []), (2, [1.0, 1.0]), (3, [0.0, 2.0, 6.0])],
        ids=["one", "two", "three"],
    )
    def test_few_records_inside_the_storage_curve(self, n_inside, expected):
        # the records of hours 0, 1 and 3 (the first n_inside of them) hold volume
        # vol0 + 3600 h^2 m3, whose derivative is 2 h m3/s; the rest lie above the
        # curve.  Two records give the one slope, three a second-order derivative
        # that is exact on a quadratic; one has no derivative at all
        curves = demo_plant_curves()
        inside = [0, 1, 3][:n_inside]
        level = np.full(5, 220.0)
        level[inside] = curves.storage.level_at_volume(4.0e7 + 3600.0 * np.array(inside, dtype=float) ** 2)
        comp = constant_compensation("2015-01-01", "2015-03-01", 0.0)
        rec = reconstruct_net_inflow(make_telemetry(level, np.zeros(5)), curves, comp)
        assert_allclose(rec.values, expected, rtol=1e-9, atol=1e-9)
        assert rec.skipped_indices == [i for i in range(5) if i not in inside or n_inside == 1]
        assert rec.skipped_reasons == ["isolated_volume" if i in inside else "storage_domain" for i in rec.skipped_indices]


class TestCurves:
    def test_bilinear_matches_manual(self, rng):
        table = GridTable([0.0, 10.0], [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
        # manual bilinear at (2.5, 0.25)
        fp, fl = 0.25, 0.25
        manual = 1.0 * 0.75 * 0.75 + 3.0 * 0.25 * 0.75 + 2.0 * 0.75 * 0.25 + 4.0 * 0.25 * 0.25
        assert_allclose(table.lookup(2.5, 0.25), manual, rtol=1e-14)

    def test_lookup_outside_domain_raises(self):
        table = GridTable([0.0, 10.0], [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(CurveDomainError):
            table.lookup(11.0, 0.5)

    def test_storage_monotone_required(self):
        with pytest.raises(InputError):
            StorageCurve([1.0, 2.0, 3.0], [5.0, 4.0, 6.0])

    @pytest.mark.parametrize("powers, levels, values", [([0.0], [0.0, 1.0], [[1.0, 2.0]]), ([0.0, 10.0], [], [[], []])])
    def test_grid_needs_two_points_on_each_axis(self, powers, levels, values):
        with pytest.raises(InputError, match="at least 2 points on each axis"):
            GridTable(powers, levels, values)

    @pytest.mark.parametrize("n", [0, 1])
    def test_storage_needs_two_points(self, n):
        with pytest.raises(InputError, match=f"at least 2 points, got {n}"):
            StorageCurve([1.0][:n], [5.0][:n])


class TestAggregation:
    def test_constant_series_normalises_to_one(self):
        ts = np.datetime64("2015-01-01T00:00:00", "s") + np.arange(96) * np.timedelta64(3600, "s")
        series = aggregate_and_normalize(ts, np.full(96, 7.3))
        assert_allclose(series.values, 1.0, atol=1e-12)
        assert_allclose(series.normalization_constant, 7.3)

    def test_alternating_values(self):
        ts = np.datetime64("2015-01-01T00:00:00", "s") + np.arange(48) * np.timedelta64(3600, "s")
        vals = np.tile([0.0, 2.0], 24)
        series = aggregate_and_normalize(ts, vals)
        assert_allclose(series.values, [1.0, 1.0])
        assert_allclose(series.normalization_constant, 1.0)

    def test_window_means_match_loop_oracle(self, rng):
        n = 24 * 11
        ts = np.datetime64("2015-03-01T00:00:00", "s") + np.arange(n) * np.timedelta64(3600, "s")
        vals = rng.normal(5.0, 1.0, n)
        series = aggregate_and_normalize(ts, vals)
        # naive loop oracle
        expected = [vals[d * 24 : (d + 1) * 24].mean() for d in range(11)]
        norm = np.mean(expected)
        assert_allclose(series.values, np.array(expected) / norm, rtol=1e-12)

    def test_incomplete_window_dropped(self):
        n = 24 + 6  # one full day plus a partial one
        ts = np.datetime64("2015-01-01T00:00:00", "s") + np.arange(n) * np.timedelta64(3600, "s")
        series = aggregate_and_normalize(ts, np.full(n, 3.0))
        assert len(series) == 1

    def test_days_need_80_percent_of_24_hours(self):
        # 0.8 * 24 = 19.2 hours: 20 are enough, 19 are not
        hour = np.timedelta64(3600, "s")
        starts, lengths, levels = ["2015-01-01", "2015-01-02", "2015-01-03"], [24, 20, 19], [1.0, 3.0, 50.0]
        ts = np.concatenate([np.datetime64(s, "s") + np.arange(n) * hour for s, n in zip(starts, lengths)])
        series = aggregate_and_normalize(ts, np.repeat(levels, lengths))
        assert series.dates.tolist() == [dt.date(2015, 1, 1), dt.date(2015, 1, 2)]
        assert series.normalization_constant == 2.0
        assert_allclose(series.values, [0.5, 1.5], rtol=1e-15)

    def test_record_mean_of_normalised_is_one(self, rng):
        n = 24 * 40
        ts = np.datetime64("2015-01-01T00:00:00", "s") + np.arange(n) * np.timedelta64(3600, "s")
        series = aggregate_and_normalize(ts, rng.gamma(2.0, 3.0, n))
        assert abs(series.values.mean() - 1.0) < 1e-9


class TestCrossCorrelation:
    def test_identical_series_peak_at_zero(self, rng):
        dates = np.datetime64("2015-01-01") + np.arange(200)
        a = DailySeries(dates, rng.normal(size=200))
        result = cross_correlation(a, a, range(-5, 6))
        assert result.best_lag == 0
        assert_allclose(result.correlation_at(0), 1.0, atol=1e-12)

    def test_shifted_series_peak_at_minus_three(self, rng):
        # b(t) = a(t-3): past a matches present b, so the peak sits at lag -3
        dates = np.datetime64("2015-01-01") + np.arange(300)
        vals = rng.normal(size=300)
        a = DailySeries(dates, vals)
        b = DailySeries(dates[3:], vals[:-3])
        result = cross_correlation(a, b, range(-6, 7))
        assert result.best_lag == -3
        assert_allclose(result.correlation_at(-3), 1.0, atol=1e-12)

    def test_matches_direct_summation_oracle(self, rng):
        n = 400
        dates = np.datetime64("2010-01-01") + np.arange(n)
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = 0.7 * x[i - 1] + rng.normal()
        y = np.roll(x, 2) + 0.3 * rng.normal(size=n)
        a = DailySeries(dates, x)
        b = DailySeries(dates, y)
        result = cross_correlation(a, b, range(-4, 5))
        for lag in range(-4, 5):
            # naive O(n * lags) oracle on the overlapping dates
            if lag >= 0:
                xa, yb = x[lag:], y[: n - lag]
            else:
                xa, yb = x[:lag], y[-lag:]
            expected = np.corrcoef(xa, yb)[0, 1]
            assert_allclose(result.correlation_at(lag), expected, atol=1e-12)

    def test_zero_variance_lag_reported_missing(self, rng):
        dates = np.datetime64("2015-01-01") + np.arange(100)
        a_vals = np.concatenate([np.ones(50), rng.normal(size=50)])
        a = DailySeries(dates, a_vals)
        b = DailySeries(dates, rng.normal(size=100))
        # at lag -50 the a-side overlap is the constant first half: undefined
        result = cross_correlation(a, b, [-50, 0])
        assert np.isnan(result.correlation_at(-50))
        assert np.isfinite(result.correlation_at(0))
        assert result.best_lag == 0
        with pytest.raises(InputError):
            cross_correlation(DailySeries(dates, np.ones(100)), b, [0])  # undefined everywhere

    def test_insufficient_overlap_rejected(self, rng):
        dates = np.datetime64("2015-01-01") + np.arange(20)
        a = DailySeries(dates, rng.normal(size=20))
        with pytest.raises(InputError):
            cross_correlation(a, a, [0], min_overlap=30)
