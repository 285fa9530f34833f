"""The column writers and `np.loadtxt` series readers of `inflowcast.io` against the row-at-a-time reference."""

import datetime as dt
import math
import warnings

import csv_oracles as oracle
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inflowcast import io as iomod
from inflowcast.data import EnsemblePrecipForecast, NaoIndex
from inflowcast.errors import InputError
from inflowcast.series import DailySeries, InflowSeries
from inflowcast.synth import simulate_telemetry
from inflowcast.telemetry import CompensationSchedule, GridTable, StorageCurve, TelemetrySeries

ODD_FLOATS = [-0.0, 5e-324, 1e-7, 1e16, 1e17, math.nan, math.inf, -math.inf, np.float32(0.1), np.int64(3), True, None]
INCREASING = [-1e17, -1e16, -0.0, 5e-324, 1e-7, np.float32(0.1), True, np.int64(3), 1e16, 1e17]


def _same_bytes(tmp_path, writer, *payload):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    getattr(iomod, writer)(new, *payload)
    getattr(oracle, writer)(old, *payload)
    assert new.read_bytes() == old.read_bytes()


class TestWritersMatchCsvWriter:
    def test_generated_scenario(self, tmp_path, scenario5):
        _same_bytes(tmp_path, "write_ensemble_csv", scenario5.forecasts)
        _same_bytes(tmp_path, "write_inflow_csv", scenario5.inflow)
        _same_bytes(tmp_path, "write_reanalysis_csv", scenario5.precip)
        _same_bytes(tmp_path, "write_nao_csv", scenario5.nao)
        sim = simulate_telemetry(n_hours=24 * 200, storage_rate=0.0, storage_trend=0.0, seed=5)  # rows in many written blocks
        _same_bytes(tmp_path, "write_telemetry_csv", sim.telemetry)
        _same_bytes(tmp_path, "write_grid_table_csv", sim.curves.efficiency)
        _same_bytes(tmp_path, "write_storage_csv", sim.curves.storage)
        _same_bytes(tmp_path, "write_compensation_csv", sim.compensation)

    def test_odd_floats(self, tmp_path):
        n = len(ODD_FLOATS)
        days = np.datetime64("2015-01-01") + np.arange(n)
        _same_bytes(tmp_path, "write_inflow_csv", InflowSeries(days, ODD_FLOATS))
        _same_bytes(tmp_path, "write_reanalysis_csv", DailySeries(days, np.array(ODD_FLOATS, dtype=np.float32)))
        stamps = np.datetime64("1969-12-31T22:00:00") + np.arange(n) * np.timedelta64(3600, "s")
        _same_bytes(tmp_path, "write_telemetry_csv", TelemetrySeries(stamps, ODD_FLOATS, ODD_FLOATS[::-1]))
        _same_bytes(tmp_path, "write_storage_csv", StorageCurve(INCREASING, INCREASING))
        grid = GridTable(INCREASING, INCREASING[:4], np.resize(np.array(ODD_FLOATS, dtype=float), (len(INCREASING), 4)))
        _same_bytes(tmp_path, "write_grid_table_csv", grid)
        starts = np.array(["2015-01-01", "2015-02-01", "2015-03-01"], dtype="datetime64[D]")
        _same_bytes(tmp_path, "write_compensation_csv", CompensationSchedule(starts, starts + 10, [0.0, 5e-324, np.inf]))
        nao = NaoIndex({(y, m): v for (y, m), v in zip([(2015, k) for k in range(1, 13)] + [(np.int64(2016), True)], ODD_FLOATS + ["x"])})
        _same_bytes(tmp_path, "write_nao_csv", nao)
        members = np.array([[0.0, 5e-324, 1e-7], [1e16, 1e17, -0.0]], dtype=float)
        forecasts = [
            EnsemblePrecipForecast(dt.date(2015, 1, 5), members),
            EnsemblePrecipForecast(np.datetime64("2015-01-12"), members.astype(np.float32)),
            EnsemblePrecipForecast("a, b", members[:, :1]),  # a date field csv quotes
        ]
        _same_bytes(tmp_path, "write_ensemble_csv", forecasts)

    def test_table_fields_and_minimal_quoting(self, tmp_path):
        header = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", 1.5, np.float64(2.5), np.float32(0.1), None, True]
        odd = ["", " ", ",", '"', '""', "a,b", "x\r\ny", "\r", "\n", "tail,", ' lead"', "{}", np.str_("n,p")]
        values = ODD_FLOATS + odd + [np.bool_(True), np.float64(2.5), np.datetime64("2015-01-01"), dt.date(2015, 1, 2)]
        rows = [[values[(i + k) % len(values)] for k in range(len(header))] for i in range(len(values))]
        _same_bytes(tmp_path, "write_table_csv", header, rows)
        _same_bytes(tmp_path, "write_table_csv", ["only"], [[v] for v in values])  # a lone empty field is quoted
        _same_bytes(tmp_path, "write_table_csv", ["a", "b"], [])
        _same_bytes(tmp_path, "write_table_csv", ["v", "w"], [[0.1 * i, i] for i in range(3 * iomod._BLOCK_ROWS // 2)])

    def test_columns_match_their_transposed_rows(self, tmp_path):
        def same(header, columns):
            new, old = tmp_path / "new.csv", tmp_path / "old.csv"
            iomod.write_columns_csv(new, header, columns)
            oracle.write_table_csv(old, header, list(zip(*columns)))
            assert new.read_bytes() == old.read_bytes()

        floats = [-0.0, 5e-324, 1e16, 1e17, math.nan, math.inf, -math.inf]
        days = np.datetime64("1969-12-30") + np.arange(len(floats))
        stamps = np.datetime64("1969-12-31T22:00:00") + np.arange(len(floats)) * np.timedelta64(3599, "s")
        texts = ["", "a,b", 'say "hi"', "x\r\ny", "\r", "\n", "plain"]
        columns = [
            np.array(floats),
            np.array(floats, dtype=np.float32),
            days,
            stamps,
            np.datetime_as_string(stamps, timezone="UTC"),
            np.array(texts),
            texts,
            np.array([0, -1, 2**63 - 1, -(2**63), 7, 10**15, -42], dtype=np.int64),
            np.arange(len(floats), dtype=np.uint8) * 40,
            np.array([True, False, True, True, False, False, True]),
            np.array([1.5, np.float32(0.1), "a,b", None, True, np.int64(3), -0.0], dtype=object),
        ]
        same(["f64", "f32", "day", "second", "utc", "text", "list", "i64", "u8", "bool", "object"], columns)
        same(["only"], [["", "", ""]])  # a lone empty field is quoted
        same(["only"], [np.array(texts)])
        same(["a", "b"], [np.zeros(0), np.array([], dtype="datetime64[D]")])
        n = 2 * iomod._BLOCK_ROWS + 3
        same(["v", "day", "w"], [np.arange(n) * 0.1, np.datetime64("2015-01-01") + np.arange(n), np.arange(n, dtype=np.float32) / 3])

    def test_table_rows_of_other_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            iomod.write_table_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])
        with pytest.raises(ValueError):
            iomod.write_columns_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

SCHEMAS = {
    "telemetry": ("timestamp", ("water_level_m", "power_w")),
    "inflow": ("date", ("inflow_norm",)),
    "reanalysis": ("date", ("precip_mm_day",)),
}
KEYS = {
    "date": [
        "", "x", "2015-02-30", "2015-1-3", "20150103", "2015-W02-1", " 2015-01-03 ", '"2015-01-03"', "2015-01-03T00:00",
        "2015-01-03Z", "2015-01-03\x00", "\xa02015-01-03", "+2015-01-03", '"2015-01-03"x', ' "2015-01-03"', "2014-12-31",
    ],
    "timestamp": [
        "", "x", "2015-01-01T05:00:00+01:00", "2015-01-01 03:00", "2015-01-01", "20150101T020000", "2015-01-01T01:00:00.5Z",
        "2015-01-01T24:00:00", "2015-01-01T02:00:00ZZ", "2015-01-01T03:00:00\x00", " 2015-01-01T03:00:00Z\t", "2014-12-31T23:00:00",
    ],
}
VALUES = [
    "", " ", "nan", "NaN", "inf", "-Infinity", "1e400", "x", "1_0", "\u0661", "\uff11.5", "1.5\x1f", "\x1c1.5", "\x0b2\x0c", " 2.5 ",
    "\xa02", "1.5\x00", '"3.5"', '"1,5"', '1"5', '""', "+.5", "5.", "0x10", "1e", "\t-0.0", "-0.2", '"2\n"', '"4.5"x', '"6.5',
]


def _key_text(key, i, style):
    if key == "timestamp":
        t = dt.datetime(2015, 1, 1) + dt.timedelta(hours=i)
        return [f"{t.isoformat()}Z", t.isoformat(), t.strftime("%Y%m%dT%H%M%S"), f'"{t.isoformat()}Z"'][style]
    d = dt.date(2015, 1, 1) + dt.timedelta(days=i)
    return [d.isoformat(), d.isoformat(), d.strftime("%Y%m%d"), f'"{d.isoformat()}"'][style]


@st.composite
def series_files(draw, kind):
    """The bytes of a series file, valid but for a few mutated fields, lines or bytes."""
    key, values = SCHEMAS[kind]
    header = draw(st.permutations([key, *values, *draw(st.lists(st.sampled_from(["note", key, values[0]]), max_size=2))]))
    # a repeated name reads from its last column, so every column is filled by its name
    good = [
        [_key_text(key, i, draw(st.integers(0, 3))) if name == key else repr(draw(st.floats(0, 1e3))) for name in header]
        for i in range(draw(st.integers(0, 5)))
    ]
    lines = [",".join(f'"{h}"' if h == "note" else h for h in header)] + [",".join(row) for row in good]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, max(1, len(lines) - 1)))
        if at >= len(lines):
            lines.append("")
        op = draw(st.sampled_from(["field", "field", "short", "long", "blank", "spaces", "swap", "repeat"]))
        fields = lines[at].split(",")
        if op == "field":
            column = draw(st.integers(0, len(fields) - 1))
            pool = KEYS[key] if column < len(header) and header[column] == key else VALUES
            fields[column] = draw(st.sampled_from(pool))
            lines[at] = ",".join(fields)
        elif op == "short":
            lines[at] = ",".join(fields[: draw(st.integers(0, len(fields) - 1))])
        elif op == "long":
            lines[at] += ",extra"
        elif op == "blank":
            lines.insert(at, "")
        elif op == "spaces":
            lines[at] = "   "
        elif op == "swap" and at + 1 < len(lines):
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode()
    if draw(st.booleans()) and len(data) > 1 and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + b"\xff" + data[at:]
    return data


READERS = {
    "telemetry": ("read_telemetry_csv", lambda s: (s.timestamps, s.water_level, s.power)),
    "inflow": ("read_inflow_csv", lambda s: (s.dates, s.values)),
    "reanalysis": ("read_reanalysis_csv", lambda s: (s.dates, s.values)),
}


def _outcome(read, parts, path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns of every timestamp with a UTC offset
        try:
            series = read(path)
        except InputError as exc:
            return str(exc)
    return [(a.dtype.str, a.tobytes()) for a in parts(series)]


class TestSeriesReadersMatchRowReaders:
    @pytest.mark.parametrize("kind", sorted(SCHEMAS))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_same_arrays_or_same_message(self, tmp_path, kind, data):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(data.draw(series_files(kind)))
        name, parts = READERS[kind]
        assert _outcome(getattr(iomod, name), parts, path) == _outcome(getattr(oracle, name), parts, path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("date,inflow_norm\n2015-01-01,0.5\n2015-01-02\n", ":3: bad value None in column 'inflow_norm'"),
            ("inflow_norm,date\n0.5,2015-01-01\n0.25\n", ":3: bad value None in column 'date'"),
            ("date,inflow_norm\n20090103,0.5\n2009-01-04,1.5,extra\n", None),
            ('"date",inflow_norm,inflow_norm\n"2009-01-03",x,"0.5"\n', None),
        ],
    )
    def test_row_rules(self, tmp_path, text, message):
        path = tmp_path / "inflow.csv"
        path.write_text(text)
        if message is None:
            series = iomod.read_inflow_csv(path)
            assert series.dates.astype(str).tolist()[0] == "2009-01-03"
            assert series.values.tolist()[0] == 0.5
        else:
            with pytest.raises(InputError, match=f"^{path}{message}$"):
                iomod.read_inflow_csv(path)

    @pytest.mark.parametrize("kind", ["inflow", "reanalysis"])
    def test_date_cut_at_nul_is_refused(self, tmp_path, kind):
        # a numpy str array drops a trailing NUL, so the column parse alone would read this date
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(f"date,{SCHEMAS[kind][1][0]}\n2015-01-02,0.5\n2015-01-03\x00,0.5\n".encode())
        name, parts = READERS[kind]
        expected = f"{path}:3: bad value '2015-01-03\\x00' in column 'date'"
        assert _outcome(getattr(iomod, name), parts, path) == _outcome(getattr(oracle, name), parts, path) == expected
