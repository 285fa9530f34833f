import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inflowcast
from inflowcast.cli import main

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

    def test_cost_eval_and_report(self, run_dir, config_file, tmp_path):
        out = tmp_path / "cost"
        rc = main(
            [
                "--config", config_file, "--seed", "5", "cost-eval",
                "--models", str(run_dir / "models.json"),
                "--inflow", str(run_dir / "inflow.csv"),
                "--ensemble", str(run_dir / "ensemble.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "value_report.csv").exists()
        assert (out / "decisions.csv").exists()
        rc = main(
            [
                "--config", config_file, "report",
                "--skill", str(run_dir / "skill.json"),
                "--values", str(out / "value_report.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
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


class TestThreads:
    def test_threaded_training_matches_serial(self, run_dir, config_file, tmp_path):
        outs = []
        for threads, name in ((1, "t1"), (3, "t3")):
            out = tmp_path / name
            rc = main(
                [
                    "--config", config_file, "--seed", "5", "--threads", str(threads),
                    "train",
                    "--inflow", str(run_dir / "inflow.csv"),
                    "--ensemble", str(run_dir / "ensemble.csv"),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outs.append((out / "models.json").read_bytes())
        assert outs[0] == outs[1]


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
            ("quadrature_nodes = 0", "quadrature_nodes"),
            ("bootstrap = 1", "bootstrap"),
        ],
        ids=["step_zero", "min_above_max", "no_nodes", "one_draw"],
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
    @pytest.mark.parametrize("probe", ["ragged_members", "nan_precipitation", "nan_inflow"])
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
        else:
            inflow[7] = inflow[7].split(",")[0] + ",nan"
            expected = f"{tmp_path / 'inflow.csv'}:8: non-finite value 'nan'"
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

    def test_missing_config_file_exits_2(self, tmp_path):
        rc = main(["--config", str(tmp_path / "none.ini"), "synth", "--out", str(tmp_path)])
        assert rc == 2


class TestTrainConvergence:
    def test_line_search_abort_at_converged_gradient_accepted(self, tmp_path):
        # at this seed every start of the Forecast Week 1 fit for fold 2010
        # ends in an L-BFGS line-search abort (status 2) with max|grad| of
        # 7e-5 to 1.2e-4, the level that starts reported as converged reach
        cfg = tmp_path / "run.ini"
        cfg.write_text("[synth]\nyears = 5\nmembers = 5\n\n[horizons]\nnames = Forecast Week 1, 4 Week Forecast\n")
        base = ["--config", str(cfg), "--seed", "105"]
        assert main([*base, "synth", "--out", str(tmp_path)]) == 0
        data = ["--inflow", str(tmp_path / "inflow.csv"), "--ensemble", str(tmp_path / "ensemble.csv")]
        assert main([*base, "train", *data, "--out", str(tmp_path)]) == 0


def test_cli_import_leaves_out_scipy_optimize():
    # only training fits EMOS, so only `train` should pay for scipy.optimize
    code = "import sys, inflowcast.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(inflowcast.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
