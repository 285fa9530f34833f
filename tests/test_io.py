import datetime as dt
import json
import re
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from inflowcast import io as iomod
from inflowcast import textio
from inflowcast.cli import _emit_inflow
from inflowcast.data import EnsemblePrecipForecast
from inflowcast.errors import InputError
from inflowcast.series import DailySeries, InflowSeries
from inflowcast.synth import demo_plant_curves, simulate_telemetry
from inflowcast.verification import NaoIndex


class TestTelemetryCsv:
    def test_round_trip(self, tmp_path):
        sim = simulate_telemetry(n_hours=30, seed=1)
        path = tmp_path / "telemetry.csv"
        iomod.write_telemetry_csv(path, sim.telemetry)
        back = iomod.read_telemetry_csv(path)
        assert np.array_equal(back.timestamps, sim.telemetry.timestamps)
        assert np.array_equal(back.water_level, sim.telemetry.water_level)
        assert np.array_equal(back.power, sim.telemetry.power)

    def test_bad_value_reports_line_number(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text(
            "timestamp,water_level_m,power_w\n"
            "2015-01-01T00:00:00Z,200.0,1e6\n"
            "2015-01-01T01:00:00Z,not_a_number,1e6\n"
        )
        with pytest.raises(InputError, match=":3:"):
            iomod.read_telemetry_csv(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text("timestamp,level\n2015-01-01T00:00:00Z,200.0\n")
        with pytest.raises(InputError, match="water_level_m"):
            iomod.read_telemetry_csv(path)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(InputError, match="missing"):
            iomod.read_telemetry_csv(tmp_path / "nope.csv")

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_utc_offset_gives_the_same_instant_without_a_warning(self, tmp_path):
        # numpy warns on an aware datetime ("no explicit representation of timezones")
        stamps = {}
        for name, first, second in (
            ("z", "2015-01-01T00:00:00Z", "2015-01-01T01:30:00Z"),
            ("offset", "2015-01-01T01:00:00+01:00", "2015-01-01T00:30:00-01:00"),
        ):
            path = tmp_path / f"{name}.csv"
            path.write_text(f"timestamp,water_level_m,power_w\n{first},200.0,1e6\n{second},200.0,1e6\n")
            stamps[name] = iomod.read_telemetry_csv(path).timestamps
        assert np.array_equal(stamps["offset"], stamps["z"])
        assert stamps["z"].tolist() == [dt.datetime(2015, 1, 1, 0, 0), dt.datetime(2015, 1, 1, 1, 30)]

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_offset_before_year_one_stays_an_instant(self, tmp_path):
        # datetime.astimezone cannot go below year 1; numpy can
        path = tmp_path / "early.csv"
        path.write_text("timestamp,water_level_m,power_w\n0001-01-01T00:30:00+01:00,200.0,1e6\n")
        assert str(iomod.read_telemetry_csv(path).timestamps[0]) == "0000-12-31T23:30:00"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field",
        [
            "2015-01-01T00:00:00", "2015-01-01T00:00:00Z", " 2015-01-01T01:00:00Z ", "2015-01-01 02:00:00",
            "2015-01-01T03:00", "2015-01-02", "2015-01-01T04:00:00+01:00", "2015-01-01T00:00:00.5",
            "20150103T000000", "0001-01-01T00:00:00", "9999-12-31T23:59:59", "2016-02-29T00:00:00",
        ],
    )
    def test_accepted_timestamp_reads_as_the_field_parser(self, tmp_path, field):
        path = tmp_path / "telemetry.csv"
        path.write_text(f"timestamp,water_level_m,power_w\n{field},200.0,1e6\n")
        stamps = iomod.read_telemetry_csv(path).timestamps
        assert stamps.dtype == np.dtype("datetime64[s]")
        assert stamps.tolist() == [iomod._to_timestamp(field).tolist()]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field",
        ["NaT", "", "now", "2015", "2015-01", "2015-13-01T00:00:00", "0000-01-01T00:00:00",
         "10000-01-01T00:00:00", "2015-02-29T00:00:00", "2015-01-01T00:00:60", "2015-01-01T00:00:00 Z"],
    )
    def test_refused_timestamp_names_its_line(self, tmp_path, field):
        path = tmp_path / "telemetry.csv"
        path.write_text(f"timestamp,water_level_m,power_w\n{field},200.0,1e6\n")
        with pytest.raises(InputError, match=rf"^{path}:2: bad value {re.escape(repr(field))} in column 'timestamp'"):
            iomod.read_telemetry_csv(path)

    @pytest.mark.parametrize("second", ["2015-01-01T00:00:00Z", "2014-12-31T23:00:00Z"])
    def test_repeated_or_reversed_timestamp_names_its_line(self, tmp_path, second):
        path = tmp_path / "telemetry.csv"
        path.write_text(f"timestamp,water_level_m,power_w\n2015-01-01T00:00:00Z,200.0,1e6\n\n{second},200.0,1e6\n")
        with pytest.raises(InputError, match=rf"^{path}:4: telemetry timestamps must be strictly increasing: "):
            iomod.read_telemetry_csv(path)


class TestCurvesCsv:
    def test_grid_round_trip(self, tmp_path):
        curves = demo_plant_curves()
        path = tmp_path / "eff.csv"
        iomod.write_grid_table_csv(path, curves.efficiency)
        back = iomod.read_grid_table_csv(path)
        assert np.array_equal(back.power_axis, curves.efficiency.power_axis)
        assert np.array_equal(back.level_axis, curves.efficiency.level_axis)
        assert np.array_equal(back.values, curves.efficiency.values)

    def test_storage_round_trip(self, tmp_path):
        curves = demo_plant_curves()
        path = tmp_path / "storage.csv"
        iomod.write_storage_csv(path, curves.storage)
        back = iomod.read_storage_csv(path)
        assert np.array_equal(back.volume, curves.storage.volume)

    def test_compensation_round_trip(self, tmp_path):
        from inflowcast.telemetry import CompensationSchedule

        sched = CompensationSchedule(
            np.array(["2015-01-01", "2015-07-01"], dtype="datetime64[D]"),
            np.array(["2015-06-30", "2015-12-31"], dtype="datetime64[D]"),
            [1.5, 2.0],
        )
        path = tmp_path / "comp.csv"
        iomod.write_compensation_csv(path, sched)
        back = iomod.read_compensation_csv(path)
        assert np.array_equal(back.rates, sched.rates)
        assert np.array_equal(back.starts, sched.starts)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_storage_non_finite_value_names_its_line(self, tmp_path, raw):
        path = tmp_path / "storage.csv"
        path.write_text(f"level_m,volume_m3\n150.0,1000.0\n\n200.0,{raw}\n250.0,3000.0\n")
        with pytest.raises(InputError, match=rf"^{path}:4: non-finite value '{raw}' in column 'volume_m3'$"):
            iomod.read_storage_csv(path)

    @pytest.mark.parametrize("line, bad", [(1, "power_w,150.0,inf"), (2, "0.0,nan,0.6"), (4, "-inf,0.7,0.8")])
    def test_grid_non_finite_entry_names_its_line(self, tmp_path, line, bad):
        rows = ["power_w,150.0,200.0", "0.0,0.5,0.6", "", "1000.0,0.7,0.8"]
        rows[line - 1] = bad
        path = tmp_path / "eff.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match=rf"^{path}:{line}: non-finite"):
            iomod.read_grid_table_csv(path)

    @pytest.mark.parametrize("body, n", [("", 0), ("150.0,1000.0\n", 1)])
    def test_storage_with_fewer_than_two_rows_names_the_file(self, tmp_path, body, n):
        path = tmp_path / "storage.csv"
        path.write_text("level_m,volume_m3\n" + body)
        with pytest.raises(InputError, match=rf"^{path}: storage curve needs at least 2 points, got {n}$"):
            iomod.read_storage_csv(path)

    @pytest.mark.parametrize("second", ["150.0,2000.0", "200.0,1000.0", "140.0,2000.0"])
    def test_storage_not_increasing_names_its_line(self, tmp_path, second):
        path = tmp_path / "storage.csv"
        path.write_text(f"level_m,volume_m3\n150.0,1000.0\n\n{second}\n")
        with pytest.raises(InputError, match=rf"^{path}:4: storage curve must be strictly increasing$"):
            iomod.read_storage_csv(path)

    @pytest.mark.parametrize(
        "text, shape",
        [
            ("power_w,150.0,200.0\n", "0 x 2"),
            ("power_w,150.0,200.0\n0.0,0.5,0.6\n", "1 x 2"),
            ("power_w,150.0\n0.0,0.5\n1000.0,0.7\n", "2 x 1"),
        ],
    )
    def test_grid_with_one_point_on_an_axis_names_the_file(self, tmp_path, text, shape):
        path = tmp_path / "eff.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=rf"^{path}: grid needs at least 2 points on each axis, got {shape} "):
                iomod.read_grid_table_csv(path)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["power_w,200.0,150.0", "0.0,0.5,0.6", "1000.0,0.7,0.8"], 1),
            (["power_w,150.0,200.0", "0.0,0.5,0.6", "", "0.0,0.7,0.8"], 4),
            (["power_w,150.0,200.0", "1000.0,0.5,0.6", "0.0,0.7,0.8"], 3),
        ],
    )
    def test_grid_axis_not_increasing_names_its_line(self, tmp_path, rows, line):
        path = tmp_path / "eff.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match=rf"^{path}:{line}: grid axes must be strictly increasing"):
            iomod.read_grid_table_csv(path)

    def test_compensation_overlap_names_the_file(self, tmp_path):
        path = tmp_path / "comp.csv"
        path.write_text("start_date,end_date,flow_m3s\n2015-01-01,2015-06-30,1.5\n2015-06-01,2015-12-31,2.0\n")
        with pytest.raises(InputError, match=rf"^{path}: compensation date ranges overlap$"):
            iomod.read_compensation_csv(path)

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_compensation_non_finite_flow_names_its_line(self, tmp_path, raw):
        path = tmp_path / "comp.csv"
        path.write_text(f"start_date,end_date,flow_m3s\n2015-01-01,2015-06-30,1.5\n2015-07-01,2015-12-31,{raw}\n")
        with pytest.raises(InputError, match=rf"^{path}:3: non-finite value '{raw}' in column 'flow_m3s'$"):
            iomod.read_compensation_csv(path)

    def test_compensation_short_row_without_its_dates_names_its_line(self, tmp_path):
        path = tmp_path / "comp.csv"
        path.write_text("flow_m3s,start_date,end_date\n1.5,2015-01-01,2015-06-30\n2.0\n")
        with pytest.raises(InputError, match=rf"^{path}:3: bad value None in column 'start_date'$"):
            iomod.read_compensation_csv(path)


class TestInflowCsv:
    def test_round_trip_with_sidecar(self, tmp_path):
        dates = np.datetime64("2015-01-01") + np.arange(40)
        series = InflowSeries(dates, np.linspace(-0.2, 2.0, 40) / 0.9, normalization_constant=3.7)
        assert _emit_inflow(tmp_path, series, cleaning_report={"n_removed": 3}) == ["inflow.csv", "inflow_meta.json"]
        back = iomod.read_inflow_csv(tmp_path / "inflow.csv")
        assert type(back) is DailySeries  # the sidecar is a record; no reader opens it
        assert np.array_equal(back.dates, series.dates)
        assert np.array_equal(back.values, series.values)
        meta = json.loads((tmp_path / "inflow_meta.json").read_text())
        assert meta == {"normalization_constant": 3.7, "n_values": 40, "cleaning_report": {"n_removed": 3}}


class TestEnsembleCsv:
    def test_daily_round_trip(self, tmp_path, rng):
        forecasts = [
            EnsemblePrecipForecast(dt.date(2015, 1, 5) + dt.timedelta(days=3 * i), rng.gamma(1, 2, (3, 46)))
            for i in range(4)
        ]
        path = tmp_path / "ensemble.csv"
        iomod.write_ensemble_csv(path, forecasts)
        back = iomod.read_ensemble_csv(path)
        assert len(back) == 4
        for a, b in zip(back, forecasts):
            assert a.issue_date == b.issue_date
            assert np.array_equal(a.members, b.members)

    def test_six_hourly_aggregation(self, tmp_path):
        lines = ["issue_date,member,lead_step_hours,precip_mm"]
        for member in (0, 1):
            for day in range(1, 43):
                for step in (6, 12, 18, 24):
                    lines.append(f"2015-01-05,{member},{(day - 1) * 24 + step},{0.5 * day}")
        path = tmp_path / "ensemble6h.csv"
        path.write_text("\n".join(lines) + "\n")
        back = iomod.read_ensemble_csv(path)
        assert len(back) == 1
        # four 6-hour steps of 0.5*day mm sum to 2*day mm/day
        assert_allclose(back[0].members[0], 2.0 * np.arange(1, 43))

    def test_split_total_precipitation(self, tmp_path):
        lines = ["issue_date,member,lead_day,largescale_mm_day,convective_mm_day"]
        for member in (0, 1):
            for day in range(1, 43):
                lines.append(f"2015-01-05,{member},{day},1.0,0.25")
        path = tmp_path / "split.csv"
        path.write_text("\n".join(lines) + "\n")
        back = iomod.read_ensemble_csv(path)
        assert_allclose(back[0].members, 1.25)

    def test_incomplete_lead_days_rejected(self, tmp_path):
        lines = ["issue_date,member,lead_day,precip_mm_day"]
        for member in (0, 1):
            for day in range(1, 43):
                if member == 1 and day == 17:
                    continue
                lines.append(f"2015-01-05,{member},{day},1.0")
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="lead day"):
            iomod.read_ensemble_csv(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="schema"):
            iomod.read_ensemble_csv(path)


ENSEMBLE_HEADERS = {
    "daily": "issue_date,member,lead_day,precip_mm_day",
    "split": "issue_date,member,lead_day,largescale_mm_day,convective_mm_day",
    "six_hourly": "issue_date,member,lead_step_hours,precip_mm",
}


@st.composite
def ensemble_files(draw):
    """(mode, issues, members, n_days, rows, blank positions); rows in file order."""
    mode = draw(st.sampled_from(sorted(ENSEMBLE_HEADERS)))
    issues = [dt.date(2015, 1, 5) + dt.timedelta(days=7 * i) for i in range(draw(st.integers(1, 3)))]
    members = sorted(draw(st.lists(st.integers(0, 50), min_size=2, max_size=3, unique=True)))
    n_days = draw(st.integers(1, 4))
    amount = st.floats(0.0, 50.0)
    rows = []
    for issue in issues:
        for m in members:
            for day in range(1, n_days + 1):
                if mode == "six_hourly":
                    rows += [(issue, m, (day - 1) * 24 + step, (draw(amount),)) for step in (6, 12, 18, 24)]
                else:
                    rows.append((issue, m, day, tuple(draw(amount) for _ in range(1 + (mode == "split")))))
    rows = draw(st.permutations(rows))
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    return mode, issues, members, n_days, rows, blanks


def _ensemble_lines(mode, rows, blanks):
    lines = [f"{issue.isoformat()},{m},{lead},{','.join(repr(a) for a in amounts)}" for issue, m, lead, amounts in rows]
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    return [ENSEMBLE_HEADERS[mode]] + lines


@pytest.fixture(params=[1, 2, 3, 7], ids=lambda n: f"blocks_of_{n}")
def small_blocks(request, monkeypatch):
    """The ensemble reader's rows and the byte check's bytes read ``n`` at a time."""
    monkeypatch.setattr(iomod, "_CHUNK_ROWS", request.param)
    monkeypatch.setattr(textio, "_BLOCK_BYTES", request.param)


def _daily_lines(n_days):
    """A daily file of two members, one issue, whose amounts are ``member + 0.25 * day``."""
    return [ENSEMBLE_HEADERS["daily"]] + [f"2015-01-05,{m},{d},{m + 0.25 * d!r}" for m in (0, 1) for d in range(1, n_days + 1)]


def _six_hourly_lines(rows):
    """A six-hourly file of (issue number, member, day, step) rows, or (member, day, step) rows of issue 0.

    The amounts make the order of each day's sum show in its last bits.
    """
    amounts = [1e16, 1.0, 1.0, 0.1, 0.3, 1e-17, 2.5]
    rows = [r if len(r) == 4 else (0, *r) for r in rows]
    return [ENSEMBLE_HEADERS["six_hourly"]] + [
        f"{dt.date(2015, 1, 5) + dt.timedelta(days=7 * issue)},{m},{(day - 1) * 24 + step},{amounts[i % len(amounts)]!r}"
        for i, (issue, m, day, step) in enumerate(rows)
    ]


def _assert_running_sums(tmp_path, monkeypatch, mode, lines, n_days):
    """Read ``lines`` and check every issue against running sums of its rows in file order, cut at ``n_days``."""
    path = tmp_path / "ensemble.csv"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(iomod, "LAST_LEAD_DAY", n_days)
    back = iomod.read_ensemble_csv(path)
    totals = {}
    for line in lines[1:]:
        issue, m, lead, *amounts = line.split(",")
        key = (dt.date.fromisoformat(issue), int(m), (int(lead) + 23) // 24 if mode == "six_hourly" else int(lead))
        totals[key] = totals.get(key, 0.0) + sum(float(a) for a in amounts[: 1 + (mode == "split")])
    issues = sorted({issue for issue, _, _ in totals})
    members = sorted({m for _, m, _ in totals})
    assert [f.issue_date for f in back] == issues
    for f in back:
        expected = np.array([[totals[f.issue_date, m, d] for d in range(1, n_days + 1)] for m in members])
        assert f.members.tobytes() == expected.tobytes()
    return path


class TestColumnarEnsembleReader:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ensemble_files())
    def test_any_row_order_reads_back_bitwise(self, tmp_path, spec):
        mode, issues, members, n_days, rows, blanks = spec
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(_ensemble_lines(mode, rows, blanks)) + "\n")
        # daily totals accumulate in file order, as a running Python sum
        totals = {}
        for issue, m, lead, amounts in rows:
            day = (lead + 23) // 24 if mode == "six_hourly" else lead
            totals[issue, m, day] = totals.get((issue, m, day), 0.0) + sum(amounts)
        with patch.object(iomod, "LAST_LEAD_DAY", n_days):
            back = iomod.read_ensemble_csv(path)
        assert [f.issue_date for f in back] == issues
        for f in back:
            expected = np.array([[totals[f.issue_date, m, d] for d in range(1, n_days + 1)] for m in members])
            assert f.members.tobytes() == expected.tobytes()

    def test_an_issue_in_two_runs_and_two_spellings(self, tmp_path, monkeypatch):
        # the reader decodes issue dates per run of equal rows: an issue whose rows
        # come in two runs, one of them spelled 20150105, is still one issue
        amounts = {(issue, m, d): 0.5 * d + m + (issue == "B") for issue in "AB" for m in (0, 1) for d in (1, 2, 3)}
        spelled = {"A": ["2015-01-05", "20150105"], "B": ["2015-01-12", "2015-01-12"]}
        order = [("A", 0), ("B", 0), ("A", 1), ("B", 1)]
        lines = [ENSEMBLE_HEADERS["daily"]] + [
            f"{spelled[issue][m]},{m},{d},{amounts[issue, m, d]!r}" for issue, m in order for d in (1, 2, 3)
        ]
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 3)
        back = iomod.read_ensemble_csv(path)
        assert [f.issue_date for f in back] == [dt.date(2015, 1, 5), dt.date(2015, 1, 12)]
        for issue, f in zip("AB", back):
            expected = np.array([[amounts[issue, m, d] for d in (1, 2, 3)] for m in (0, 1)])
            assert f.members.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ensemble_files(), st.data())
    def test_bad_value_names_its_line(self, tmp_path, spec, data):
        mode, issues, members, n_days, rows, blanks = spec
        lines = _ensemble_lines(mode, rows, blanks)
        k = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line and i > 0]))
        fields = lines[k].split(",")
        column = data.draw(st.integers(0, len(fields) - 1))
        bad = {
            0: ["2015-02-30", "soon", ""],
            1: ["1.5", "x", ""],
            2: ["0", "-6", "x"] + (["3", "25"] if mode == "six_hourly" else []),
        }.get(column, ["nan", "-inf", "inf", "-0.5", "1e", ""])
        fields[column] = data.draw(st.sampled_from(bad))
        lines[k] = ",".join(fields)
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        with patch.object(iomod, "LAST_LEAD_DAY", n_days), pytest.raises(InputError) as err:
            iomod.read_ensemble_csv(path)
        problem = iomod._ensemble_row_problem(dict(zip(ENSEMBLE_HEADERS[mode].split(","), fields)), mode)
        assert str(err.value) == f"{path}:{k + 1}: {problem}"

    def test_six_hourly_step_off_the_grid_names_its_line(self, tmp_path, monkeypatch):
        lines = ["issue_date,member,lead_step_hours,precip_mm"]
        lines += [f"2015-01-05,{m},{step},1.0" for m in (0, 1) for step in (6, 12, 18, 24)]
        lines[6] = "2015-01-05,1,9,1.0"
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 1)
        with pytest.raises(InputError, match=rf"^{path}:7: lead_step_hours must be a positive multiple of 6$"):
            iomod.read_ensemble_csv(path)

    def test_short_row_names_its_line(self, tmp_path, monkeypatch):
        lines = ["issue_date,member,lead_day,precip_mm_day"]
        lines += [f"2015-01-05,{m},{d},1.0" for m in (0, 1) for d in (1, 2)]
        lines[3] = "2015-01-05,1,1"
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 2)
        with pytest.raises(InputError, match=r":4: bad value None in column 'precip_mm_day'"):
            iomod.read_ensemble_csv(path)

    def test_ragged_members_rejected(self, tmp_path, monkeypatch):
        lines = ["issue_date,member,lead_day,precip_mm_day"]
        for issue in ("2015-01-05", "2015-01-12", "2015-01-19"):
            for m in (0, 1, 2):
                if not (issue == "2015-01-12" and m == 2):
                    lines += [f"{issue},{m},{d},1.0" for d in (1, 2)]
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 2)
        with pytest.raises(InputError, match=r"issue 2015-01-12 has 2 members \[0, 1\] but 2 of the 3 issues have 3 \[0, 1, 2\]"):
            iomod.read_ensemble_csv(path)

    def test_issue_cut_to_shortest_member(self, tmp_path, monkeypatch):
        lines = ["issue_date,member,lead_day,precip_mm_day"]
        lines += [f"2015-01-05,{m},{d},{d}.0" for m in (0, 1) for d in range(1, 4 + m)]
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 3)
        back = iomod.read_ensemble_csv(path)
        assert back[0].members.tolist() == [[1.0, 2.0, 3.0]] * 2
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 4)
        with pytest.raises(InputError, match="has only 3 lead days"):
            iomod.read_ensemble_csv(path)

    def test_duplicate_row_is_incomplete(self, tmp_path, monkeypatch):
        lines = ["issue_date,member,lead_day,precip_mm_day"]
        lines += [f"2015-01-05,{m},{d},1.0" for m in (0, 1) for d in (1, 2)]
        lines.append(lines[2])
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 2)
        with pytest.raises(InputError, match="member 0 has incomplete data for lead day 2"):
            iomod.read_ensemble_csv(path)

    def test_header_only_has_no_rows(self, tmp_path):
        path = tmp_path / "ensemble.csv"
        path.write_text("issue_date,member,lead_day,precip_mm_day\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="no forecast rows"):
                iomod.read_ensemble_csv(path)

    @pytest.mark.parametrize(
        "line, column",
        [
            ("#2015-01-05,1,2,1.0", 0),  # not a comment
            ("   ", 0),
            ("\t", 0),
            ("2015-01-05xxxxxxxxxxxxxxxxx,1,2,1.0", 0),  # longer than the width dates are read at
            ("  2015-01-05    ,1,2,1.0", 0),  # a valid date padded to that width
            ("2015-01-05,1\u01fe,2,1.0", 1),  # numpy's integer parser reads U+01FE as a digit
            ("2015-01-05,1,1_0,1.0", 2),
            ("2015-01-05,99999999999999999999,2,1.0", 1),  # beyond int64
            ("2015-01-05,1,2,\u0661.5", 3),  # an Arabic-Indic digit
        ],
    )
    def test_parser_quirk_is_a_bad_row(self, tmp_path, monkeypatch, line, column):
        header = "issue_date,member,lead_day,precip_mm_day"
        lines = [header] + [f"2015-01-05,{m},{d},1.0" for m in (0, 1) for d in (1, 2)]
        lines.insert(3, line)
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        field, name = line.split(",")[column], header.split(",")[column]
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 2)
        with pytest.raises(InputError, match=re.escape(f"{path}:4: bad value {field!r} in column {name!r}") + "$"):
            iomod.read_ensemble_csv(path)

    @pytest.mark.parametrize(
        "line, byte",
        [("2015-01-05\x00,1,2,1.0", "\x00"), ("2015-01-05,1,2,1.0\x1c", "\x1c"), ("2015-01-05,1,2,1.0,\x1f", "\x1f")],
    )
    def test_character_numpy_misreads_names_its_line(self, tmp_path, monkeypatch, line, byte):
        # numpy would drop a trailing NUL from the date and read the separators as blanks
        lines = ["issue_date,member,lead_day,precip_mm_day"]
        lines += [f"2015-01-05,{m},{d},1.0" for m in (0, 1) for d in (1, 2)]
        lines[4] = line
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:5: byte {byte.encode()!r} is not allowed"
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 2)
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            iomod.read_ensemble_csv(path)

    def test_quoted_fields_and_extra_columns_read_as_csv_reads_them(self, tmp_path, monkeypatch):
        rows = [(m, d, f"{m + d}.25") for m in (0, 1) for d in (1, 2)]
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        body = "".join(f"2015-01-05,{m},{d},{v}\n" for m, d, v in rows)
        plain.write_text("issue_date,member,lead_day,precip_mm_day\n" + body)
        odd.write_text(
            '"issue_date",member,"lead_day",precip_mm_day,note\n'
            + "".join(f'"2015-01-05", {m},"{d}",{v} ,"a, ""b""",extra\n' for m, d, v in rows)
            + " 2015-01-05\t,1,3,9.0\n"  # a padded date, on a day past the issue's cut
        )
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 2)
        back, expected = (iomod.read_ensemble_csv(p) for p in (odd, plain))
        assert [f.issue_date for f in back] == [f.issue_date for f in expected]
        assert back[0].members.tobytes() == expected[0].members.tobytes()

    def test_six_hourly_steps_across_block_ends_sum_as_in_one_block(self, tmp_path, monkeypatch):
        # summed in another order, 1e16 + 1.0 + 1.0 would differ in its last bit
        amounts = [1e16, 1.0, 1.0, 0.1, 0.3, 1e-17, 2.5]
        rows = [(m, day, step) for m in (0, 1) for day in (1, 2, 3) for step in (6, 12, 18, 24)]
        lines = [ENSEMBLE_HEADERS["six_hourly"]] + [
            f"2015-01-05,{m},{(day - 1) * 24 + step},{amounts[i % len(amounts)]!r}" for i, (m, day, step) in enumerate(rows)
        ]
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 3)
        blocks = iomod.read_ensemble_csv(path)[0].members
        monkeypatch.setattr(iomod, "_CHUNK_ROWS", len(rows))
        whole = iomod.read_ensemble_csv(path)[0].members
        assert blocks.tobytes() == whole.tobytes()
        totals = {}
        for i, (m, day, _) in enumerate(rows):
            totals[m, day] = totals.get((m, day), 0.0) + amounts[i % len(amounts)]
        assert whole.tolist() == [[totals[m, d] for d in (1, 2, 3)] for m in (0, 1)]

    @pytest.mark.parametrize("trailing", ["", "\n\n"])
    def test_rows_that_fill_whole_blocks(self, tmp_path, monkeypatch, trailing):
        lines = _daily_lines(21)  # 42 rows: whole blocks of 1, 2, 3 and 7
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n" + trailing)
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 21)
        back = iomod.read_ensemble_csv(path)
        assert back[0].members.tolist() == [[m + 0.25 * d for d in range(1, 22)] for m in (0, 1)]

    def test_bad_value_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        lines = _daily_lines(21)
        lines[39] = "2015-01-05,1,19,x"
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 21)
        with pytest.raises(InputError, match=rf"^{path}:40: bad value 'x' in column 'precip_mm_day'$"):
            iomod.read_ensemble_csv(path)

    def test_blank_lines_at_block_ends_warn_nothing(self, tmp_path, monkeypatch):
        # with max_rows numpy warns of each blank line; the reader ignores them, as csv does
        lines = _daily_lines(21)
        for at in (43, 22, 15, 8, 7, 4, 3, 1):
            lines.insert(at, "")
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 21)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = iomod.read_ensemble_csv(path)
        assert back[0].members.tolist() == [[m + 0.25 * d for d in range(1, 22)] for m in (0, 1)]

    @pytest.mark.parametrize(
        "notes, message",
        [
            ({}, None),
            ({2: b"\xe2\x82"}, "{path}:3: byte b'\\xe2' is not valid UTF-8"),  # a character cut short
            ({5: b"\x00"}, "{path}:6: byte b'\\x00' is not allowed"),
            ({2: b"\x00", 7: b"\xff\xc3\xa9"}, "{path}:8: byte b'\\xff' is not valid UTF-8"),  # UTF-8 first, wherever it is
            ({8: b"\xe2\x82"}, "{path}:9: byte b'\\xe2' is not valid UTF-8"),  # at the end of the file
        ],
        ids=["valid", "cut_character", "nul_in_a_later_block", "not_utf8_after_a_nul", "cut_at_the_end"],
    )
    def test_characters_across_byte_blocks(self, tmp_path, monkeypatch, notes, message):
        # every line carries characters of two, three and four bytes, which blocks of 1 to 7 bytes cut
        lines = [(line + ",note").encode() for line in _daily_lines(4)[:1]] + [
            f"{line},\u00e9\u20ac\U0001f600".encode() for line in _daily_lines(4)[1:]
        ]
        for k, extra in notes.items():
            lines[k] += extra
        path = tmp_path / "ensemble.csv"
        path.write_bytes(b"\r\n".join(lines) + (b"" if 8 in notes else b"\r\n"))
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 4)
        if message is None:
            assert iomod.read_ensemble_csv(path)[0].members.tolist() == [[m + 0.25 * d for d in range(1, 5)] for m in (0, 1)]
        else:
            with pytest.raises(InputError, match=re.escape(message.format(path=path)) + "$"):
                iomod.read_ensemble_csv(path)

    # Fixed row orders that take each path of the cube: a pair's rows waiting
    # for the width, the reorder at the end, a dropped row and a regrown cube.
    # Each reads as the running sums of its rows in file order.

    def test_a_pair_in_reverse_lead_day_order(self, tmp_path, monkeypatch):
        # member 0's steps come last day first, so its later days wait for the width
        rows = [(0, day, step) for day in (3, 2, 1) for step in (24, 18, 12, 6)]
        rows += [(1, day, step) for day in (1, 2, 3) for step in (6, 12, 18, 24)]
        _assert_running_sums(tmp_path, monkeypatch, "six_hourly", _six_hourly_lines(rows), 3)

    @pytest.mark.parametrize("order", ["member_major", "shuffled"])
    def test_rows_out_of_issue_member_order(self, tmp_path, monkeypatch, order):
        rows = [(issue, m, day, step) for issue in range(3) for m in (4, 0, 2) for day in (1, 2) for step in (6, 12, 18, 24)]
        if order == "member_major":
            rows.sort(key=lambda r: (r[1], r[0]))
        else:
            rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        _assert_running_sums(tmp_path, monkeypatch, "six_hourly", _six_hourly_lines(rows), 2)

    def test_a_lead_day_past_every_pair_is_dropped(self, tmp_path, monkeypatch):
        lines = _daily_lines(3)
        lines.insert(1, "2015-01-05,0,50,7.5")  # no pair has 49 rows, so no day 50 can be complete
        _assert_running_sums(tmp_path, monkeypatch, "daily", lines, 3)

    def test_a_day_whose_steps_straddle_the_width(self, tmp_path, monkeypatch):
        # one step of day 2 comes before member 0 has four rows, and the rest after
        rows = [(0, 2, 6)] + [(0, 1, step) for step in (6, 12, 18, 24)] + [(0, 2, step) for step in (12, 18, 24)]
        rows += [(0, 3, step) for step in (6, 12, 18, 24)] + [(1, day, step) for day in (1, 2, 3) for step in (6, 12, 18, 24)]
        _assert_running_sums(tmp_path, monkeypatch, "six_hourly", _six_hourly_lines(rows), 3)

    def test_a_last_day_short_of_a_step_in_every_member_is_incomplete(self, tmp_path, monkeypatch):
        # no pair has all of day 3, so the cube is one day wider than any pair can complete
        rows = [(m, day, step) for m in (0, 1) for day in (1, 2, 3) for step in (6, 12, 18, 24) if (day, step) != (3, 24)]
        path = tmp_path / "ensemble.csv"
        path.write_text("\n".join(_six_hourly_lines(rows)) + "\n")
        monkeypatch.setattr(iomod, "LAST_LEAD_DAY", 3)
        with pytest.raises(InputError, match=rf"^{path}: issue 2015-01-05 member 0 has incomplete data for lead day 3$"):
            iomod.read_ensemble_csv(path)

    def test_a_file_longer_than_its_head_suggests(self, tmp_path, monkeypatch):
        # long rows first, then short ones: the cube sized from the head must grow
        n_days = 1200
        lines = [ENSEMBLE_HEADERS["daily"] + ",note"] + [
            f"2015-01-05,{m},{d},{m + 0.25 * d!r},{'x' * 300 if d <= 250 and m == 0 else ''}" for m in (0, 1) for d in range(1, n_days + 1)
        ]
        path = _assert_running_sums(tmp_path, monkeypatch, "daily", lines, n_days)
        assert iomod._estimated_rows(path) < 2 * n_days


@pytest.mark.usefixtures("small_blocks")
class TestColumnarEnsembleReaderInSmallBlocks(TestColumnarEnsembleReader):
    """Every case above gives the same arrays, or the same error and line, with blocks cut at every few rows and bytes."""

def test_reading_an_ensemble_takes_at_most_16_bytes_a_row_and_one_block(tmp_path):
    """The reader sums each block of rows into the cube as it parses it.

    The cube takes 12 bytes a cell, a float total and a 32-bit row count, and
    a daily file has one row a cell; the pairs' numbers and the parsed rows of
    one block take the rest.  Rows kept to the end of the file, at 16 bytes
    each for a lead day and an amount, would break the bound.
    """
    import tracemalloc

    rng = np.random.default_rng(7)
    days = 46
    forecasts = [EnsemblePrecipForecast(dt.date(2000, 1, 3) + dt.timedelta(days=7 * i), rng.gamma(0.8, 3.0, (11, days))) for i in range(200)]
    path = tmp_path / "ensemble.csv"
    iomod.write_ensemble_csv(path, forecasts)
    iomod.read_ensemble_csv(path)  # numpy's parser sets itself up on a first call
    tracemalloc.start()
    try:
        back = iomod.read_ensemble_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 200 * 11 * days
    assert [f.members.tobytes() for f in back] == [f.members.tobytes() for f in forecasts]
    assert peak <= 16 * rows + 2 * 2**20, f"{peak / rows:.1f} bytes a row"


def _grid_file(path):
    iomod.write_grid_table_csv(path, demo_plant_curves().efficiency)


def _ensemble_file(path):
    rows = "".join(f"2015-01-05,{m},{d},1.0,ok\n" for m in (0, 1) for d in (1, 2))
    path.write_text("issue_date,member,lead_day,precip_mm_day,note\n" + rows)


def _inflow_file(path):
    rows = "".join(f"{dt.date(2000, 1, 1) + dt.timedelta(days=i)},0.125\n" for i in range(1000))
    path.write_text("date,inflow_norm\n" + rows)


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "write, read, line",
        [
            (_ensemble_file, iomod.read_ensemble_csv, 4),  # in a column that is not read
            (_inflow_file, iomod.read_inflow_csv, 700),
            (_grid_file, iomod.read_grid_table_csv, 3),
            (_inflow_file, lambda p: iomod.read_table_csv(p, ["date"]), 1),
        ],
    )
    @pytest.mark.parametrize("at_start", [False, True])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, write, read, line, at_start):
        path = tmp_path / "input.csv"
        write(path)
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"" if at_start else lines[line - 1].rstrip(b"\r\n")
        lines[line - 1] = body + b"\xff" + lines[line - 1][len(body) :]
        path.write_bytes(b"".join(lines))
        with pytest.raises(InputError, match=rf"^{path}:{line}: byte b'\\xff' is not valid UTF-8$"):
            read(path)



@pytest.mark.usefixtures("small_blocks")
class TestUndecodableInputInSmallBlocks(TestUndecodableInput):
    """The same bytes and lines named when the byte check reads a few bytes at a time."""

class TestDailySeriesCsv:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["2015-01-05", " 2015-01-05 ", "20150105", "2016-02-29", "0001-01-01", "9999-12-31"])
    def test_accepted_date_reads_as_the_field_parser(self, tmp_path, field):
        path = tmp_path / "inflow.csv"
        path.write_text(f"date,inflow_norm\n{field},0.5\n")
        dates = iomod.read_inflow_csv(path).dates
        assert dates.dtype == np.dtype("datetime64[D]")
        assert dates.tolist() == [iomod._to_date(field).tolist()]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field",
        ["NaT", "", "0000-01-01", "10000-01-01", "2015-02-29", "today", "2015-01-05Z",
         "2015-01-05T00:00:00", "2015-01-05T00:00:00Z"],
    )
    def test_refused_date_names_its_line(self, tmp_path, field):
        path = tmp_path / "inflow.csv"
        path.write_text(f"date,inflow_norm\n{field},0.5\n")
        with pytest.raises(InputError, match=rf"^{path}:2: bad value {re.escape(repr(field))} in column 'date'"):
            iomod.read_inflow_csv(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_its_line(self, tmp_path, raw):
        path = tmp_path / "inflow.csv"
        path.write_text(f"date,inflow_norm\n2015-01-01,0.5\n\n2015-01-02,{raw}\n")
        with pytest.raises(InputError, match=rf"^{path}:4: non-finite value '{raw}' in column 'inflow_norm'"):
            iomod.read_inflow_csv(path)

    def test_negative_reanalysis_names_its_line(self, tmp_path):
        path = tmp_path / "reanalysis.csv"
        path.write_text("date,precip_mm_day\n2015-01-01,0.5\n2015-01-02,-0.2\n")
        with pytest.raises(InputError, match=rf"^{path}:3: negative precipitation rate '-0.2'"):
            iomod.read_reanalysis_csv(path)

    @pytest.mark.parametrize("reader", ["read_inflow_csv", "read_reanalysis_csv"])
    @pytest.mark.parametrize("second", ["2015-01-02", "2015-01-01"])
    def test_repeated_or_reversed_date_names_its_line(self, tmp_path, reader, second):
        column = "inflow_norm" if reader == "read_inflow_csv" else "precip_mm_day"
        path = tmp_path / "series.csv"
        path.write_text(f"date,{column}\n2015-01-01,0.5\n2015-01-02,0.5\n\n{second},0.5\n")
        with pytest.raises(InputError, match=rf"^{path}:5: date {second} is not after 2015-01-02$"):
            getattr(iomod, reader)(path)

    def test_negative_inflow_accepted(self, tmp_path):
        path = tmp_path / "inflow.csv"
        path.write_text("date,inflow_norm\n2015-01-01,-0.25\n")
        assert iomod.read_inflow_csv(path).values.tolist() == [-0.25]


class TestMiscCsv:
    def test_reanalysis_negative_rejected(self, tmp_path):
        path = tmp_path / "re.csv"
        path.write_text("date,precip_mm_day\n2015-01-01,-0.2\n")
        with pytest.raises(InputError):
            iomod.read_reanalysis_csv(path)

    def test_nao_round_trip(self, tmp_path):
        nao = NaoIndex({(2015, 1): 0.5, (2015, 2): -0.8})
        path = tmp_path / "nao.csv"
        iomod.write_nao_csv(path, nao)
        back = iomod.read_nao_csv(path)
        assert back.value(2015, 1) == 0.5
        assert back.value(2015, 2) == -0.8
        assert back.value(2014, 12) is None

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_nao_non_finite_index_names_its_line(self, tmp_path, raw):
        path = tmp_path / "nao.csv"
        path.write_text(f"year,month,index\n2015,1,0.5\n2015,2,{raw}\n")
        with pytest.raises(InputError, match=rf"^{path}:3: non-finite value '{raw}' in column 'index'$"):
            iomod.read_nao_csv(path)

    def test_nao_repeated_month_names_both_lines(self, tmp_path):
        path = tmp_path / "nao.csv"
        path.write_text("year,month,index\n2015,1,0.5\n2015,2,0.1\n2015,1,-0.8\n")
        with pytest.raises(InputError, match=rf"^{path}:4: month 2015-01 repeats line 2$"):
            iomod.read_nao_csv(path)

    def test_float_round_trip_exact(self, tmp_path):
        vals = [0.1, 1 / 3, 2.0000000000000004, 1e-17]
        path = tmp_path / "t.csv"
        iomod.write_table_csv(path, ["v"], [[v] for v in vals])
        rows = iomod.read_table_csv(path, ["v"])
        assert [float(r["v"]) for r in rows] == vals
