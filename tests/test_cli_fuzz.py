"""Hypothesis fuzz of the CLI: mutated inputs or settings end in exit 0, 2 or 3.

`forecast`, `report` and `reconstruct-inflow` get mutated input files;
`synth`, `reconstruct-inflow`, `train`, `verify` and `cost-eval` get one
config key of their sections set to an odd value, and every section of
`CONFIG_KEYS` is one of theirs.  `verify` is also run with `[verification]
bootstrap` set below two draws and `min_cases` below one case, and `verify`
and `cost-eval` with an inflow file too short for any case to be scored,
and `report` with a file, or a path under one, as `--out`.

Each example copies the outputs of a tiny run (5 years, 3 members, four
weeks of hourly telemetry), mutates one or two input files and calls
``main()`` in this process, so any exception that is not mapped to an exit
code fails the test.  CSV files lose, repeat, reorder or corrupt rows, or are
cut to their header and at most one row; the ensemble also loses one member
of one issue; the ensemble, inflow, telemetry and plant-curve files also gain
a byte that is not UTF-8, a `#` line, a whitespace-only line, a quoted field
or an extra trailing column.  JSON files are truncated or have one value
replaced by a value of another type.
"""

import configparser
import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from inflowcast.cli import CONFIG_KEYS, main

PLANT_FILES = ("telemetry.csv", "efficiency.csv", "net_head.csv", "storage.csv", "compensation.csv")
RAW_MUTATED = ("ensemble.csv", "inflow.csv", *PLANT_FILES)  # also get byte-level mutations
ODD_VALUES = ("nan", "inf", "-inf", "", "abc", "-1", "1e400", "1e308", "-1e308")
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


@st.composite
def csv_mutation(draw, lines, ensemble=False, raw=False):
    """Mutated CSV file bytes (header first); ``raw`` adds byte-level mutations."""
    lines = list(lines)
    kinds = ["drop", "duplicate", "value", "reverse", "swap", "truncate"] + (["ragged"] if ensemble else [])
    kinds += ["not_utf8", "comment", "whitespace", "quoted", "extra"] if raw else []
    kind = draw(st.sampled_from(kinds))
    row = draw(st.integers(1, len(lines) - 1))
    if kind == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif kind == "duplicate":
        lines.insert(row, lines[row])
    elif kind == "value":
        fields = lines[row].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_VALUES))
        lines[row] = ",".join(fields)
    elif kind == "reverse":
        lines[1:] = lines[:0:-1]
    elif kind == "truncate":  # header only, or header and one row
        lines = lines[: draw(st.integers(1, 2))]
    elif kind == "swap":
        other = draw(st.integers(1, len(lines) - 1))
        lines[row], lines[other] = lines[other], lines[row]
    elif kind == "ragged":  # one member of one issue goes missing
        issue, member = lines[row].split(",")[:2]
        lines = [line for line in lines if not line.startswith(f"{issue},{member},")]
    elif kind == "comment":
        lines.insert(row, "#" + lines[row])
    elif kind == "whitespace":
        lines.insert(row, draw(st.sampled_from([" ", "\t", " \t  "])))
    elif kind == "quoted":
        fields = lines[row].split(",")
        k = draw(st.integers(0, len(fields) - 1))
        fields[k] = f'"{fields[k]}"'
        lines[row] = ",".join(fields)
    elif kind == "extra":
        lines[row] += "," + draw(st.sampled_from(["0", "x", '"a,b"', ""]))
    data = ("\n".join(lines) + "\n").encode()
    if kind == "not_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


@st.composite
def json_mutation(draw, text):
    """Truncated JSON text, or the JSON with one value (the whole document included) retyped."""
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return json.dumps(value)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


def _mutations(draw, sources, names):
    """Mutated text of one or two of ``names``."""
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    out = {}
    for name in chosen:
        text = sources[name]
        if name.endswith(".json"):
            out[name] = draw(json_mutation(text))
        else:
            raw = name in RAW_MUTATED
            out[name] = draw(csv_mutation(text.splitlines(), ensemble=name == "ensemble.csv", raw=raw))
    return out


@pytest.fixture(scope="module")
def sources(tiny_run):
    names = ("inflow.csv", "inflow_meta.json", "ensemble.csv", "models.json", "skill.json", "value_report.csv")
    return {name: (tiny_run / name).read_text() for name in names}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(work, sources, mutated):
    for name, text in sources.items():
        data = mutated.get(name, text)
        (work / name).write_bytes(data if isinstance(data, bytes) else data.encode())


FUZZ = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(data=st.data())
def test_forecast_survives_mutated_inputs(sources, work, data):
    mutated = _mutations(data.draw, sources, ["inflow.csv", "inflow_meta.json", "ensemble.csv", "models.json"])
    _write(work, sources, mutated)
    rc = main(
        [
            "forecast",
            "--models", str(work / "models.json"),
            "--inflow", str(work / "inflow.csv"),
            "--ensemble", str(work / "ensemble.csv"),
            "--out", str(work / "out"),
        ]
    )
    assert rc in (0, 2, 3)


@FUZZ
@given(data=st.data())
def test_report_survives_mutated_inputs(sources, work, data):
    mutated = _mutations(data.draw, sources, ["skill.json", "value_report.csv"])
    _write(work, sources, mutated)
    rc = main(
        [
            "report",
            "--skill", str(work / "skill.json"),
            "--values", str(work / "value_report.csv"),
            "--out", str(work / "out"),
        ]
    )
    assert rc in (0, 2, 3)


@pytest.fixture(scope="module")
def plant_sources(tmp_path_factory):
    out = tmp_path_factory.mktemp("plant")
    (out / "run.ini").write_text("[synth]\nyears = 5\nmembers = 3\n")
    assert main(["--config", str(out / "run.ini"), "--seed", "3", "synth", "--with-telemetry", "--out", str(out)]) == 0
    return {name: (out / name).read_text() for name in PLANT_FILES}


def _plant_args(folder):
    return [a for name in PLANT_FILES for a in (f"--{name[:-4].replace('_', '-')}", str(folder / name))]


def _reconstruct(work):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a failure the exit code hides
        return main(["reconstruct-inflow", *_plant_args(work), "--out", str(work / "out")])


@FUZZ
@given(data=st.data())
def test_reconstruct_survives_mutated_inputs(plant_sources, work, data):
    _write(work, plant_sources, _mutations(data.draw, plant_sources, list(PLANT_FILES)))
    assert _reconstruct(work) in (0, 2, 3)


@pytest.mark.parametrize(
    "name, keep",
    [("storage.csv", 1), ("storage.csv", 2), ("efficiency.csv", 2), ("net_head.csv", 2), ("telemetry.csv", 1)],
)
def test_reconstruct_rejects_too_short_table_naming_it(plant_sources, tmp_path, capsys, name, keep):
    # header only, or one row: an axis of one point cannot be interpolated
    _write(tmp_path, plant_sources, {name: "".join(plant_sources[name].splitlines(keepends=True)[:keep])})
    assert _reconstruct(tmp_path) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / name}" in err and "Traceback" not in err


@pytest.mark.parametrize("bootstrap, code", [("1", 2), ("0", 2), ("-1", 2), ("2", 0)])
def test_verify_needs_two_bootstrap_draws(tiny_run, tmp_path, capsys, bootstrap, code):
    # one draw has no spread (numpy: "Degrees of freedom <= 0"), and a negative count no draws at all
    (tmp_path / "run.ini").write_text(f"[verification]\nbootstrap = {bootstrap}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            [
                "--config", str(tmp_path / "run.ini"), "--seed", "3", "verify",
                "--models", str(tiny_run / "models.json"),
                "--inflow", str(tiny_run / "inflow.csv"),
                "--ensemble", str(tiny_run / "ensemble.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    if code:
        assert f"config [verification] bootstrap: must be at least 2, got {bootstrap}" in err
    else:
        assert all(r["se"] > 0 for r in json.loads((tmp_path / "out" / "skill.json").read_text())["skill"])


@pytest.mark.parametrize("min_cases, code", [("0", 2), ("-1", 2), ("1", 0)])
def test_verify_needs_one_case_per_stratum(tiny_run, tmp_path, capsys, min_cases, code):
    # an NAO index of 1.0 everywhere leaves every negative-phase stratum empty
    nao = (tiny_run / "nao.csv").read_text().splitlines()
    (tmp_path / "nao.csv").write_text("\n".join([nao[0], *(line.rsplit(",", 1)[0] + ",1.0" for line in nao[1:])]) + "\n")
    (tmp_path / "run.ini").write_text(f"[verification]\nmin_cases = {min_cases}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            [
                "--config", str(tmp_path / "run.ini"), "--seed", "3", "verify",
                "--models", str(tiny_run / "models.json"),
                "--inflow", str(tiny_run / "inflow.csv"),
                "--ensemble", str(tiny_run / "ensemble.csv"),
                "--nao", str(tmp_path / "nao.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    if code:
        assert f"config [verification] min_cases: must be at least 1, got {min_cases}" in err
    else:
        strata = {r["stratum"] for r in json.loads((tmp_path / "out" / "skill.json").read_text())["skill"]}
        assert "all/nao_positive" in strata and not any("negative" in s for s in strata)


COMMAND_SECTIONS = {
    "synth": ("run", "synth"),
    "reconstruct-inflow": ("run", "cleaning"),
    "train": ("run", "horizons", "emos"),
    "verify": ("run", "verification"),
    "cost-eval": ("run", "cost", "verification"),
}
SETTINGS = [(c, s, k) for c, sections in COMMAND_SECTIONS.items() for s in sections for k in CONFIG_KEYS[s]]
SETTING_VALUES = (*ODD_VALUES, "0")


def test_every_config_section_is_fuzzed():
    assert {section for sections in COMMAND_SECTIONS.values() for section in sections} == set(CONFIG_KEYS)


def _run_with_setting(tiny_run, plant_sources, work, command, section, key, value):
    """Exit code and standard error of ``command`` on the tiny run's inputs, or the plant files, and config with ``[section] key = value``."""
    cfg = configparser.ConfigParser()
    cfg.read(tiny_run / "run.ini")
    if not cfg.has_section(section):
        cfg.add_section(section)
    cfg.set(section, key, value)
    with open(work / "odd.ini", "w") as fh:
        cfg.write(fh)
    data = ["--inflow", str(tiny_run / "inflow.csv"), "--ensemble", str(tiny_run / "ensemble.csv")]
    models = ["--models", str(tiny_run / "models.json")]
    if command == "reconstruct-inflow":
        _write(work, plant_sources, {})
    args = {"synth": [], "reconstruct-inflow": _plant_args(work), "train": data, "verify": [*models, *data], "cost-eval": [*models, *data]}[command]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a numpy warning is a failure the exit code hides
        rc = main(["--config", str(work / "odd.ini"), command, *args, "--out", str(work / "out")])
    return rc, err.getvalue()


@FUZZ
@given(setting=st.sampled_from(SETTINGS), value=st.sampled_from(SETTING_VALUES))
@example(setting=("synth", "synth", "years"), value="0")
@example(setting=("cost-eval", "cost", "peak_price"), value="nan")
@example(setting=("train", "emos", "starts"), value="0")
@example(setting=("train", "horizons", "names"), value="")
@example(setting=("reconstruct-inflow", "cleaning", "level_max"), value="0")
def test_commands_survive_odd_settings(tiny_run, plant_sources, work, setting, value):
    command, section, key = setting
    rc, err = _run_with_setting(tiny_run, plant_sources, work, command, section, key, value)
    assert rc in (0, 2, 3)
    if "config [" in err:
        assert f"config [{section}] {key}: " in err


@pytest.mark.parametrize(
    "command, section, key, value, message",
    [
        ("synth", "synth", "years", "0", "must be at least 1, got 0"),
        ("synth", "synth", "lead_days", "41", "must be at least 42, got 41"),
        ("synth", "run", "seed", "-1", "must be at least 0, got -1"),
        ("synth", "synth", "drift", "-inf", "must be finite, got '-inf'"),
        ("cost-eval", "cost", "peak_price", "nan", "must be finite, got 'nan'"),
        ("cost-eval", "cost", "energy_per_inflow_day", "nan", "must be finite, got 'nan'"),
        ("cost-eval", "cost", "free_down_frac", "1e400", "must be finite, got '1e400'"),
        ("cost-eval", "verification", "min_climatology_years", "1", "must be at least 2, got 1"),
        ("cost-eval", "cost", "free_up_frac", "0", "must be positive, got 0.0"),
        ("cost-eval", "cost", "stage2_down_frac", "-1", "must be positive, got -1.0"),
        ("cost-eval", "cost", "max_capacity_frac", "0", "must exceed 1 + free_up_frac = 1.2, got 0.0"),
        ("cost-eval", "cost", "energy_per_inflow_day", "0", "must be positive, got 0.0"),
        ("synth", "synth", "seasonal_amplitude", "-1", "must be at least 0, got -1.0"),
        ("synth", "synth", "seasonal_amplitude", "1", "must be below 1, got 1.0"),
        ("synth", "synth", "noise_sd", "-1", "must be at least 0, got -1.0"),
        ("synth", "synth", "skill_half_life", "0", "must be positive, or none, got 0.0"),
        ("synth", "synth", "marginal", "weibull", "must be gamma or lognormal, got 'weibull'"),
        ("train", "emos", "starts", "0", "must be at least 1, got 0"),
        ("train", "emos", "knots", "3", "must be at least 4, got 3"),
        ("train", "emos", "ridge", "-1", "must be at least 0, got -1.0"),
        ("train", "emos", "min_cases", "0", "must be at least 1, got 0"),
        ("train", "horizons", "names", "", "no horizon given"),
        ("train", "horizons", "names", " , ", "no horizon given"),
        ("train", "horizons", "names", "week1, Forecast Week 1", "'Forecast Week 1' is given twice"),
        ("train", "horizons", "names", "Forecast Week 9", "unknown forecast horizon 'Forecast Week 9'"),
        ("reconstruct-inflow", "cleaning", "level_max", "150", "must exceed level_min = 150.0, got 150.0"),
        ("reconstruct-inflow", "cleaning", "power_max", "-1", "must exceed power_min = 0.0, got -1.0"),
        ("reconstruct-inflow", "cleaning", "max_level_step", "0", "must be positive, got 0.0"),
        ("reconstruct-inflow", "cleaning", "max_power_step", "-5", "must be positive, got -5.0"),
    ],
)
def test_bad_setting_exits_2_naming_the_key(tiny_run, plant_sources, tmp_path, command, section, key, value, message):
    rc, err = _run_with_setting(tiny_run, plant_sources, tmp_path, command, section, key, value)
    assert rc == 2
    assert f"config [{section}] {key}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()  # the key is checked before the first write makes the directory


@pytest.mark.parametrize("out", ["taken", "taken/run"])
def test_out_that_is_a_file_exits_2_naming_it(tiny_run, tmp_path, capsys, out):
    # a file as --out, or a directory under one, cannot hold the outputs
    (tmp_path / "taken").write_text("a file\n")
    rc = main(["report", "--skill", str(tiny_run / "skill.json"), "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"input error: --out {tmp_path / out}: cannot make the output directory" in err
    assert "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "a file\n"


@pytest.fixture(scope="module")
def short_inflow(tmp_path_factory):
    """A 6-year, 5-member run trained on the full inflow, and that inflow cut to its first 399 days."""
    out = tmp_path_factory.mktemp("short")
    (out / "run.ini").write_text(
        "[synth]\nyears = 6\nmembers = 5\n\n[horizons]\nnames = Forecast Week 1\n\n"
        "[verification]\nbootstrap = 20\n\n[cost]\nbootstrap = 20\n"
    )
    base = ["--config", str(out / "run.ini"), "--seed", "3"]
    assert main([*base, "synth", "--out", str(out)]) == 0
    assert main([*base, "train", "--inflow", str(out / "inflow.csv"), "--ensemble", str(out / "ensemble.csv"), "--out", str(out)]) == 0
    cut = out / "short"
    cut.mkdir()
    (cut / "inflow.csv").write_text("".join((out / "inflow.csv").read_text().splitlines(keepends=True)[:400]))
    return out


SHORT_INFLOW_ERRORS = {
    "verify": "nothing to score: no horizon has [verification] min_cases = 20 cases with min_climatology_years = 3 years",
    "cost-eval": "no cost cases could be built",
}


@pytest.mark.parametrize("command, code", [("verify", 2), ("cost-eval", 2)])
def test_inflow_too_short_for_any_case(short_inflow, tmp_path, capsys, command, code):
    # 399 days leave no case the three years of climatology it needs: no group is scored, no cost case built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            [
                "--config", str(short_inflow / "run.ini"), "--seed", "3", command,
                "--models", str(short_inflow / "models.json"),
                "--inflow", str(short_inflow / "short" / "inflow.csv"),
                "--ensemble", str(short_inflow / "ensemble.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    assert SHORT_INFLOW_ERRORS[command] in err
    assert not (tmp_path / "out").exists()
