import argparse
import configparser
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inflowcast
from inflowcast import costmodel
from inflowcast.cli import CONFIG_KEYS, INPUT_OPTIONS, _setting, build_parser, config_fingerprint, load_config, main
from inflowcast.errors import InputError

CONFIG = """
[synth]
years = 5

[horizons]
names = Forecast Week 1, Forecast Week 2, 2 Week Forecast

[verification]
bootstrap = 100

[cost]
differential_min = 30
differential_max = 90
differential_step = 30
bootstrap = 100
"""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, config_file):
    out = tmp_path_factory.mktemp("run")
    assert main(["--config", config_file, "--seed", "5", "synth", "--out", str(out)]) == 0
    args = ["--inflow", str(out / "inflow.csv"), "--ensemble", str(out / "ensemble.csv")]
    assert main(["--config", config_file, "--seed", "5", "train", *args, "--out", str(out)]) == 0
    assert (
        main(
            ["--config", config_file, "--seed", "5", "forecast", "--models", str(out / "models.json"), *args, "--out", str(out)]
        )
        == 0
    )
    assert (
        main(
            [
                "--config", config_file, "--seed", "5", "verify",
                "--models", str(out / "models.json"), *args,
                "--reanalysis", str(out / "reanalysis.csv"),
                "--nao", str(out / "nao.csv"),
                "--out", str(out),
            ]
        )
        == 0
    )
    return out


def _cost_eval(config_file, run_dir, out):
    return main(
        [
            "--config", str(config_file), "--seed", "5", "cost-eval",
            "--models", str(run_dir / "models.json"),
            "--inflow", str(run_dir / "inflow.csv"),
            "--ensemble", str(run_dir / "ensemble.csv"),
            "--out", str(out),
        ]
    )


@pytest.fixture(scope="module")
def cost_dir(tmp_path_factory, config_file, run_dir):
    out = tmp_path_factory.mktemp("cost")
    assert _cost_eval(config_file, run_dir, out) == 0
    return out


def _edit_emos(edit):
    """A models.json mutation that applies ``edit`` to every calibration model."""

    def mutate(text):
        models = json.loads(text)
        models["emos"] = [edit(m) for m in models["emos"]]
        return json.dumps(models)

    return mutate


class TestPipelineCommands:
    def test_outputs_exist(self, run_dir):
        for name in (
            "inflow.csv",
            "ensemble.csv",
            "models.json",
            "forecasts.csv",
            "skill.json",
            "skill_by_horizon.csv",
            "reliability.csv",
        ):
            assert (run_dir / name).exists()

    def test_week1_skill_positive(self, run_dir):
        skill = json.loads((run_dir / "skill.json").read_text())
        week1 = [
            r
            for r in skill["skill"]
            if r["variable"] == "inflow_emos" and r["horizon"] == "Forecast Week 1" and r["stratum"] == "all"
        ]
        assert len(week1) == 1
        assert week1[0]["fcrpss"] > 0

    def test_manifests_written(self, run_dir):
        manifest = json.loads((run_dir / "train_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 5
        assert "config_sha256" in manifest
        assert manifest["outputs"] == ["models.json"]

    def test_forecast_columns(self, run_dir):
        header = (run_dir / "forecasts.csv").read_text().splitlines()[0]
        assert header == "issue_date,horizon,q05,q25,q50,q75,q95,nu,mu,sigma,offset"

    def test_verify_manifest_lists_reanalysis_and_nao(self, run_dir):
        inputs = json.loads((run_dir / "verify_manifest.json").read_text())["inputs"]
        assert inputs == {
            name: str(run_dir / f"{name}.{ext}")
            for name, ext in (("models", "json"), ("inflow", "csv"), ("ensemble", "csv"), ("reanalysis", "csv"), ("nao", "csv"))
        }

    def test_cost_eval_and_report(self, run_dir, config_file, cost_dir, tmp_path):
        assert (cost_dir / "value_report.csv").exists()
        assert (cost_dir / "decisions.csv").exists()
        rc = main(
            [
                "--config", config_file, "report",
                "--skill", str(run_dir / "skill.json"),
                "--values", str(cost_dir / "value_report.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["value_gains"]
        gains = {
            (g["forecast_type"], g["horizon"], g["differential"]): g["value_gain_over_climatology"]
            for g in report["value_gains"]
        }
        assert gains[("probabilistic", "all", 60.0)] > 0


class TestIdempotence:
    def test_rerun_verify_byte_identical(self, run_dir, config_file, tmp_path):
        outs = []
        for name in ("v1", "v2"):
            out = tmp_path / name
            rc = main(
                [
                    "--config", config_file, "--seed", "5", "verify",
                    "--models", str(run_dir / "models.json"),
                    "--inflow", str(run_dir / "inflow.csv"),
                    "--ensemble", str(run_dir / "ensemble.csv"),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append(out)
        for name in ("skill.json", "skill_by_horizon.csv", "reliability.csv", "verify_manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_emos_max_iterations_is_ignored(self, run_dir, tmp_path):
        # the Newton fit has no iteration budget to set; the key stays accepted
        config = tmp_path / "run.ini"
        config.write_text(CONFIG + "\n[emos]\nmax_iterations = 1\n")
        rc = main(
            [
                "--config", str(config), "--seed", "5", "train",
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "models.json").read_bytes() == (run_dir / "models.json").read_bytes()

    def test_cost_quadrature_nodes_is_ignored(self, run_dir, cost_dir, tmp_path):
        # decisions come from the exact ZAGA CDF: no Gauss-Legendre nodes are built
        config = tmp_path / "run.ini"
        config.write_text(CONFIG.replace("[cost]\n", "[cost]\nquadrature_nodes = 0\n"))
        costmodel._gl_nodes.cache_clear()
        assert _cost_eval(config, run_dir, tmp_path) == 0
        assert costmodel._gl_nodes.cache_info().misses == 0
        for name in ("value_report.csv", "decisions.csv"):
            assert (tmp_path / name).read_bytes() == (cost_dir / name).read_bytes()


class TestReconstructCommand:
    def test_telemetry_round_trip_through_files(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--with-telemetry"]) == 0
        rec = tmp_path / "rec"
        rc = main(
            [
                "reconstruct-inflow",
                "--telemetry", str(out / "telemetry.csv"),
                "--efficiency", str(out / "efficiency.csv"),
                "--net-head", str(out / "net_head.csv"),
                "--storage", str(out / "storage.csv"),
                "--compensation", str(out / "compensation.csv"),
                "--out", str(rec),
            ]
        )
        assert rc == 0
        meta = json.loads((rec / "inflow_meta.json").read_text())
        assert meta["normalization_constant"] > 0
        assert meta["cleaning_report"]["cleaning"]["n_removed"] == 0
        lines = (rec / "inflow.csv").read_text().splitlines()
        assert lines[0] == "date,inflow_norm"
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert abs(sum(values) / len(values) - 1.0) < 1e-9

    def test_weekly_window_is_refused(self, tmp_path, capsys):
        # the inflow series is daily: --window is no option of reconstruct-inflow
        tables = [a for t in ("telemetry", "efficiency", "net-head", "storage", "compensation") for a in (f"--{t}", f"{t}.csv")]
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct-inflow", *tables, "--window", "weekly", "--out", str(tmp_path / "rec")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window weekly" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()


COMMANDS = ("synth", "reconstruct-inflow", "train", "forecast", "verify", "cost-eval", "report")


def _command_args(tiny_run, plant):
    """The arguments of each command but `--out`, on the tiny run's inputs; ``plant`` holds synthetic telemetry."""
    tables = ("telemetry", "efficiency", "net_head", "storage", "compensation")
    data = ["--inflow", str(tiny_run / "inflow.csv"), "--ensemble", str(tiny_run / "ensemble.csv")]
    scored = ["--models", str(tiny_run / "models.json"), *data]
    return {
        "synth": ["--with-telemetry"],
        "reconstruct-inflow": [a for t in tables for a in (f"--{t.replace('_', '-')}", str(plant / f"{t}.csv"))],
        "train": data,
        "forecast": scored,
        "verify": [*scored, "--reanalysis", str(tiny_run / "reanalysis.csv"), "--nao", str(tiny_run / "nao.csv")],
        "cost-eval": scored,
        "report": ["--skill", str(tiny_run / "skill.json"), "--values", str(tiny_run / "value_report.csv")],
    }


def _files(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


@pytest.fixture(scope="module")
def command_dirs(tmp_path_factory, tiny_run):
    """Each command run on the tiny run's inputs into an empty directory of its own."""
    root = tmp_path_factory.mktemp("each")
    dirs = {command: root / command for command in COMMANDS}
    # synth runs first: reconstruct-inflow reads its telemetry
    for command, args in _command_args(tiny_run, dirs["synth"]).items():
        rc = main(["--config", str(tiny_run / "run.ini"), "--seed", "3", command, *args, "--out", str(dirs[command])])
        assert rc == 0, command
    return dirs


@pytest.mark.parametrize("command", COMMANDS)
def test_command_leaves_its_manifest_and_the_listed_outputs(command_dirs, command):
    out = command_dirs[command]
    manifest = f"{command.replace('-', '_')}_manifest.json"
    outputs = json.loads((out / manifest).read_text())["outputs"]
    assert outputs
    assert _files(out) == sorted([manifest, *outputs])


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_seed_exits_2_before_writing(tiny_run, command_dirs, tmp_path, capsys, command):
    args = _command_args(tiny_run, command_dirs["synth"])[command]
    out = tmp_path / "out"
    rc = main(["--config", str(tiny_run / "run.ini"), "--seed", "-1", command, *args, "--out", str(out)])
    assert rc == 2
    assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
    assert _files(out) == []


class TestErrorPaths:
    def test_missing_model_artifact_exits_2(self, run_dir, tmp_path, capsys):
        rc = main(
            [
                "verify",
                "--models", str(tmp_path / "absent.json"),
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "inflow.csv"
        bad.write_text("date,inflow_norm\n2015-01-01,1.0\n2015-01-02,oops\n")
        ens = tmp_path / "ensemble.csv"
        ens.write_text("issue_date,member,lead_day,precip_mm_day\n")
        rc = main(["train", "--inflow", str(bad), "--ensemble", str(ens), "--out", str(tmp_path)])
        assert rc == 2
        assert ":3:" in capsys.readouterr().err

    def test_bad_config_value_exits_2(self, run_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[emos]\nknots = soon\n")
        rc = main(
            [
                "--config", str(cfg), "train",
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "knots" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, key",
        [
            ("differential_step = 0", "differential_step"),
            ("differential_min = 60\ndifferential_max = 10", "differential_max"),
            ("bootstrap = 1", "bootstrap"),
        ],
        ids=["step_zero", "min_above_max", "one_draw"],
    )
    def test_bad_cost_setting_exits_2(self, run_dir, tmp_path, capsys, setting, key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[cost]\n{setting}\n")
        rc = main(
            [
                "--config", str(cfg), "cost-eval",
                "--models", str(run_dir / "models.json"),
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"[cost] {key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["cost-eval", "train"])
    @pytest.mark.parametrize("probe", ["ragged_members", "nan_precipitation", "nan_inflow", "repeated_inflow_date"])
    def test_malformed_input_exits_2_with_location(self, run_dir, tmp_path, capsys, probe, command):
        inflow = (run_dir / "inflow.csv").read_text().splitlines()
        ensemble = (run_dir / "ensemble.csv").read_text().splitlines()
        first_issue = ensemble[1].split(",")[0]
        if probe == "ragged_members":
            last = max(int(line.split(",")[1]) for line in ensemble[1:] if line.startswith(first_issue))
            ensemble = [line for line in ensemble if not line.startswith(f"{first_issue},{last},")]
            expected = f"{tmp_path / 'ensemble.csv'}: issue {first_issue} has {last} members"
        elif probe == "nan_precipitation":
            ensemble[7] = ensemble[7].rsplit(",", 1)[0] + ",nan"
            expected = f"{tmp_path / 'ensemble.csv'}:8: precipitation must be finite"
        elif probe == "nan_inflow":
            inflow[7] = inflow[7].split(",")[0] + ",nan"
            expected = f"{tmp_path / 'inflow.csv'}:8: non-finite value 'nan'"
        else:
            inflow[7] = inflow[6]
            expected = f"{tmp_path / 'inflow.csv'}:8: date {inflow[6].split(',')[0]} is not after {inflow[6].split(',')[0]}"
        (tmp_path / "inflow.csv").write_text("\n".join(inflow) + "\n")
        (tmp_path / "ensemble.csv").write_text("\n".join(ensemble) + "\n")
        data = ["--inflow", str(tmp_path / "inflow.csv"), "--ensemble", str(tmp_path / "ensemble.csv")]
        models = ["--models", str(run_dir / "models.json")] if command == "cost-eval" else []
        rc = main([command, *models, *data, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["forecast", "verify", "cost-eval"])
    @pytest.mark.parametrize("fault", ["mu_overflow", "negative_offset"])
    def test_bad_model_exits_3_with_location(self, run_dir, tmp_path, capsys, fault, command):
        models = json.loads((run_dir / "models.json").read_text())
        bad = models["emos"][0]
        if fault == "mu_overflow":
            bad["beta_mu"][0] += 1000.0  # the intercept: exp overflows on every case
            expected = "mu = inf"
        else:
            bad["offset"] = -0.5
            expected = "offset = -0.5"
        (tmp_path / "models.json").write_text(json.dumps(models))
        rc = main(
            [
                command,
                "--models", str(tmp_path / "models.json"),
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 3
        assert f"horizon '{bad['horizon']}' fold {bad['fold_year']}" in err
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["forecast", "verify", "cost-eval"])
    def test_leaky_model_exits_2_naming_the_fold(self, run_dir, tmp_path, capsys, command):
        models = json.loads((run_dir / "models.json").read_text())
        fold = min(models["regressions"], key=int)
        models["regressions"][fold]["training_years"].append(int(fold) + 1)  # the withheld successor year
        (tmp_path / "models.json").write_text(json.dumps(models))
        rc = main(
            [
                command,
                "--models", str(tmp_path / "models.json"),
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"fold {fold}: the regression was trained on years [{int(fold) + 1}]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, command, expected",
        [
            ("seed = 5\n", "synth", "bad.ini"),
            ("[run]\nseed = 5\nseed = 6\n", "synth", "bad.ini"),
            ("[run]\nseed = 5%\n", "synth", "[run] seed"),
            ("[run]\nseed = \xff\n", "synth", "bad.ini"),
            ("[emos]\nmember_wise = maybe\n", "train", "[emos] member_wise"),
            ("[synth]\nskill_half_life = soon\n", "synth", "[synth] skill_half_life"),
        ],
        ids=["no_section_header", "repeated_key", "stray_percent", "not_utf8", "member_wise_maybe", "half_life_soon"],
    )
    def test_malformed_config_exits_2(self, run_dir, tmp_path, capsys, text, command, expected):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text.encode("latin-1"))
        data = ["--inflow", str(run_dir / "inflow.csv"), "--ensemble", str(run_dir / "ensemble.csv")]
        rc = main(["--config", str(cfg), command, *(data if command == "train" else ()), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["forecast", "verify", "cost-eval"])
    @pytest.mark.parametrize(
        "name, mutate, expected",
        [
            ("models.json", lambda text: "{bad", "models.json: not valid JSON"),
            (
                "models.json",
                _edit_emos(lambda m: {k: v for k, v in m.items() if k != "beta_mu"}),
                "models.json: missing key 'beta_mu'",
            ),
            (
                "models.json",
                _edit_emos(lambda m: {**m, "beta_mu": m["beta_mu"][:-1]}),
                "models.json: malformed models file: beta_mu: expected 9 coefficients for 6 knots, got shape (8,)",
            ),
        ],
        ids=["models_not_json", "models_without_beta_mu", "beta_mu_one_short"],
    )
    def test_malformed_models_or_sidecar_exits_2(self, run_dir, tmp_path, capsys, command, name, mutate, expected):
        for copied in ("models.json", "inflow.csv"):
            (tmp_path / copied).write_text((run_dir / copied).read_text())
        (tmp_path / name).write_text(mutate((run_dir / name).read_text()))
        rc = main(
            [
                command,
                "--models", str(tmp_path / "models.json"),
                "--inflow", str(tmp_path / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{tmp_path / name}: " in err
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["forecast", "verify", "cost-eval"])
    def test_garbled_sidecar_is_not_read(self, config_file, run_dir, tmp_path, command):
        # inflow_meta.json is a record that synth and reconstruct-inflow write; no command reads it
        data = tmp_path / "data"
        data.mkdir()
        for copied in ("inflow.csv", "inflow_meta.json"):
            (data / copied).write_bytes((run_dir / copied).read_bytes())
        outputs = []
        for out, sidecar in ((tmp_path / "intact", None), (tmp_path / "garbled", "{bad")):
            if sidecar is not None:
                (data / "inflow_meta.json").write_text(sidecar)
            rc = main(
                [
                    "--config", config_file, "--seed", "5", command,
                    "--models", str(run_dir / "models.json"),
                    "--inflow", str(data / "inflow.csv"),
                    "--ensemble", str(run_dir / "ensemble.csv"),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) >= 2  # the command's outputs and its manifest
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize(
        "name, text, expected",
        [
            ("skill.json", '{"reliability": {}}', "skill.json: expected a JSON object with a 'skill' list"),
            ("skill.json", "[]", "skill.json: expected a JSON object with a 'skill' list"),
            ("value_report.csv", "abc", "value_report.csv:2: bad value 'abc' in column 'water_value'"),
            ("value_report.csv", "nan", "value_report.csv:2: non-finite value 'nan' in column 'water_value'"),
        ],
        ids=["skill_without_skill", "skill_list", "water_value_abc", "water_value_nan"],
    )
    def test_malformed_report_input_exits_2(self, run_dir, cost_dir, tmp_path, capsys, name, text, expected):
        (tmp_path / "skill.json").write_text((run_dir / "skill.json").read_text())
        lines = (cost_dir / "value_report.csv").read_text().splitlines()
        (tmp_path / "value_report.csv").write_text("\n".join(lines) + "\n")
        if name == "skill.json":
            (tmp_path / name).write_text(text)
        else:
            fields = lines[1].split(",")
            fields[3] = text  # water_value
            (tmp_path / name).write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        rc = main(
            [
                "report",
                "--skill", str(tmp_path / "skill.json"),
                "--values", str(tmp_path / "value_report.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert expected in err
        assert "Traceback" not in err

    def test_cost_eval_without_horizons_exits_2(self, run_dir, tmp_path, capsys):
        models = json.loads((run_dir / "models.json").read_text())
        (tmp_path / "models.json").write_text(json.dumps({**models, "horizons": []}))
        rc = main(
            [
                "cost-eval",
                "--models", str(tmp_path / "models.json"),
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "no cost cases could be built" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        rc = main(["--config", str(tmp_path / "none.ini"), "synth", "--out", str(tmp_path)])
        assert rc == 2


REFUSED = object()


def _accepted(kind, least, text):
    """What `_setting` must return for ``text``: its parsed value, or REFUSED."""
    if kind is str:
        return text
    if kind is bool:
        return configparser.ConfigParser.BOOLEAN_STATES.get(text.lower(), REFUSED)
    try:
        value = kind(text)
    except ValueError:
        return REFUSED
    if kind is float and not math.isfinite(value):
        return REFUSED
    return REFUSED if least is not None and value < least else value


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in CONFIG_KEYS.items() for k in keys])
def test_setting_accepts_only_finite_values_in_bounds(section, key):
    kind, default, least = CONFIG_KEYS[section][key]
    for text in (default, "nan", "inf", "-inf", "", "abc", "-1", "0", "1e400"):
        cfg = load_config(None)
        cfg.set(section, key, text)
        expected = _accepted(kind, least, text)
        if expected is REFUSED:
            with pytest.raises(InputError, match=rf"^config \[{section}\] {key}: "):
                _setting(cfg, section, key)
        else:
            value = _setting(cfg, section, key)
            assert type(value) is kind and value == expected, text
    assert _accepted(kind, least, default) is not REFUSED


def test_input_options_are_the_file_options_of_every_command():
    # a file option stores one string: it is not a flag, has no choices or type, and is not --out, a directory
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    file_options = {
        action.dest
        for parser in commands.values()
        for action in parser._actions
        if type(action) is argparse._StoreAction and action.choices is None and action.type is None and action.dest != "out"
    }
    assert len(set(INPUT_OPTIONS)) == len(INPUT_OPTIONS)
    assert set(INPUT_OPTIONS) == file_options


def test_default_config_hash_is_pinned():
    # every manifest records this hash; the defaults derived from CONFIG_KEYS must keep it
    assert config_fingerprint(load_config(None))[1] == "f5c0e1f214a3837db3fd8f961149bd7a07dc8ecccf42ba67af300b89a7139fc1"


def _python(code, cwd=None) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(inflowcast.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_cli_import_leaves_out_scipy_optimize():
    # only training fits EMOS, so only `train` should pay for scipy.optimize
    assert _python("import sys, inflowcast.cli; print('scipy.optimize' in sys.modules)") == "False"


SCIPY_LOADED = "any(m.partition('.')[0] == 'scipy' for m in sys.modules)"


def test_package_and_cli_import_leave_out_scipy():
    code = f"import sys, inflowcast; a = {SCIPY_LOADED}; import inflowcast.cli; print(a, {SCIPY_LOADED})"
    assert _python(code) == "False False"


def test_only_numeric_commands_load_scipy_special(tmp_path, tiny_run):
    # synth, reconstruct-inflow and report compute no special function, and
    # train's log-gamma and its derivatives are numpy's; forecast evaluates
    # ZAGA quantiles, which need the incomplete gamma function
    (tmp_path / "run.ini").write_text("[synth]\nyears = 5\nmembers = 3\n\n[horizons]\nnames = Forecast Week 1\n")
    tables = ("telemetry", "efficiency", "net_head", "storage", "compensation")
    data = ["--inflow", "inflow.csv", "--ensemble", "ensemble.csv"]
    commands = [
        ["synth", "--with-telemetry", "--out", "."],
        ["reconstruct-inflow", *(a for t in tables for a in (f"--{t.replace('_', '-')}", f"{t}.csv")), "--out", "rec"],
        ["report", "--skill", str(tiny_run / "skill.json"), "--values", str(tiny_run / "value_report.csv"), "--out", "rep"],
        ["train", *data, "--out", "."],
        ["forecast", "--models", "models.json", *data, "--out", "fc"],
    ]
    code = (
        "import sys; from inflowcast.cli import main; "
        f"commands = {commands!r}; "
        "codes = [main(['--config', 'run.ini', '--seed', '3', *c]) for c in commands[:4]]; "
        f"scipy = {SCIPY_LOADED}; "
        "codes.append(main(['--config', 'run.ini', '--seed', '3', *commands[4]])); "
        "print(codes, scipy, 'scipy.special' in sys.modules)"
    )
    assert _python(code, cwd=tmp_path) == "[0, 0, 0, 0, 0] False True"


def test_package_import_and_report_leave_out_numpy(tmp_path, tiny_run):
    # report reads JSON and a CSV of strings, and writes JSON, through textio alone
    report = ["report", "--skill", str(tiny_run / "skill.json"), "--values", str(tiny_run / "value_report.csv"), "--out", "rep"]
    code = (
        "import sys, inflowcast; a = 'numpy' in sys.modules; from inflowcast.cli import main; "
        f"rc = main({report!r}); print(a, rc, 'numpy' in sys.modules)"
    )
    assert _python(code, cwd=tmp_path) == "False 0 False"
    assert set(json.loads((tmp_path / "rep" / "report.json").read_text())) == {"skill", "reliability", "value_gains"}


def test_star_import_resolves_every_name():
    code = "import inflowcast; ns = {}; exec('from inflowcast import *', ns); print(sorted(set(inflowcast.__all__) - set(ns)))"
    assert _python(code) == "[]"
    assert inflowcast.fair_crps is inflowcast.verification.fair_crps
    assert not hasattr(inflowcast, "no_such_name")


def test_nao_index_lives_in_data():
    assert _python("import inflowcast.verification as v, inflowcast.data as d; print(v.NaoIndex is d.NaoIndex)") == "True"


def test_train_leaves_out_scipy_optimize(tmp_path):
    # EMOS is fitted by Newton steps on the exact information matrix
    (tmp_path / "run.ini").write_text("[synth]\nyears = 5\nmembers = 3\n\n[horizons]\nnames = Forecast Week 1\n")
    code = (
        "import sys; from inflowcast.cli import main; "
        "base = ['--config', 'run.ini', '--seed', '3']; "
        "assert main([*base, 'synth', '--out', '.']) == 0; "
        "assert main([*base, 'train', '--inflow', 'inflow.csv', '--ensemble', 'ensemble.csv', '--out', '.']) == 0; "
        "print('scipy.optimize' in sys.modules)"
    )
    assert _python(code, cwd=tmp_path) == "False"


def test_scoring_commands_leave_out_telemetry(tmp_path, tiny_run):
    # io imports the telemetry types only in the readers of plant files and telemetry
    args = _command_args(tiny_run, tmp_path)
    commands = [[c, *args[c], "--out", c] for c in ("train", "forecast", "verify", "cost-eval")]
    config = ["--config", str(tiny_run / "run.ini"), "--seed", "3"]
    code = (
        "import sys; from inflowcast.cli import main; "
        f"codes = [main([*{config!r}, *c]) for c in {commands!r}]; "
        "print(codes, 'inflowcast.telemetry' in sys.modules)"
    )
    assert _python(code, cwd=tmp_path) == "[0, 0, 0, 0] False"
