"""perfbench/tracer.py wraps library functions by name; each of them must still exist.

A target that is renamed or deleted makes every traced benchmark command fail
with an AttributeError, so the check runs here, in the test suite, together
with a traced run that checks a counter the tracer reads from a result.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"inflowcast.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"inflowcast.{module_name}.{attr}")
    assert not missing, f"perfbench/tracer.py wraps names the package no longer has: {missing}"


def _traced(tiny_run, tmp_path, command) -> dict:
    """The trace of ``command`` on the tiny run's models and data, written into ``tmp_path``."""
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(TRACER.parents[1] / "src")}
    subprocess.run(
        [
            sys.executable, str(TRACER), "--spans", str(spans), "--",
            "--config", str(tiny_run / "run.ini"), "--seed", "3", command,
            "--models", str(tiny_run / "models.json"),
            "--inflow", str(tiny_run / "inflow.csv"),
            "--ensemble", str(tiny_run / "ensemble.csv"),
            "--out", str(tmp_path),
        ],
        env=env, check=True, capture_output=True,
    )
    return json.loads(spans.read_text())


def test_cost_cases_hook_counts_every_case(tiny_run, tmp_path):
    # the `_cost_cases` hook reads len() of what build_cost_cases returns;
    # decisions.csv holds one row per case and forecast type
    counts = _traced(tiny_run, tmp_path, "cost-eval")["counts"]
    rows = len((tmp_path / "decisions.csv").read_text().splitlines()) - 1
    assert rows > 0 and rows % 3 == 0
    assert counts["pipeline.cost_cases"] == rows // 3


def test_traced_forecast_builds_its_table_inside_the_command(tiny_run, tmp_path):
    # forecasts.csv is written from the columns of `pipeline.forecast_rows`, not
    # through `io.write_table_csv`, whose row counter counts only tables of rows
    trace = _traced(tiny_run, tmp_path, "forecast")
    spans = {span["id"]: span for span in trace["spans"]}
    (command,) = [s for s in spans.values() if s["name"] == "cli.forecast"]
    (table,) = [s for s in spans.values() if s["name"] == "pipeline.forecast_rows"]
    parents = []
    while table["parent"] is not None:
        table = spans[table["parent"]]
        parents.append(table["id"])
    assert command["id"] in parents
    cells = len((tiny_run / "ensemble.csv").read_text().splitlines()) - 1  # one daily amount a row
    assert trace["counts"]["io.read_ensemble_csv.rows"] == cells
    assert "io.write_table_csv.rows" not in trace["counts"]
    assert (tmp_path / "forecasts.csv").exists()
