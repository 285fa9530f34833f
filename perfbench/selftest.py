"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

Uses the smallest scenario the cross-validation and climatology minimums
accept (five years), one horizon, three ensemble members and few bootstrap
draws, and checks that:

* every end-to-end and per-layer metric is printed with its unit, and the
  names and units agree with ``BENCHMARK.json``;
* a deliberately corrupted output fails the output check;
* a command that fails is counted as failed, with its stderr kept, and the
  run still reports what it measured;
* a trace with a call outside the command's span, a wrapper installed twice
  or self times that miss the command's duration fails the trace check.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DATA, Command, Workload, build  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'PASS' if cond else 'FAIL'}  {what}")
    if not cond:
        failures.append(what)


def metrics_printed(workload: str, trace: int, wanted) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--toy", "--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(done.returncode == 0 and result.get("correct") is True, f"{workload} --trace {trace}: toy run is correct (exit {done.returncode})")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    expect(got == dict(wanted), f"{workload} --trace {trace}: the result holds every metric with its unit")
    table = [line.split() for line in lines[:-1] if line.startswith(workload)]
    printed = {cols[1]: cols[3] for cols in table if len(cols) >= 4}
    expect(all(printed.get(name) == unit for name, unit in wanted), f"{workload} --trace {trace}: the table prints every metric with its unit")
    expect(result.get("attempted", 0) >= 1 and result.get("failed") == 0, f"{workload} --trace {trace}: attempted {result.get('attempted')}, failed {result.get('failed')}")


def benchmark_json_agrees() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END), "BENCHMARK.json end_to_end matches the harness")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER), "BENCHMARK.json per_layer matches the harness")
    expect([w["name"] for w in spec["workloads"]] == list(run.NAMES), "BENCHMARK.json workloads match the harness")


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def corrupted_outputs_fail() -> None:
    result = run.run_workload("refit", SEED, 0, False, toy=True, keep=True)
    expect(result["correct"], "refit toy run is correct before corruption")
    work = Path(result["work_dir"]) / "plain" / "chain0"
    workload = build("refit", SEED, toy=True)
    forecast = next(c for c in workload.chain if c.name == "forecast")
    reference = checks.extract("forecast", work)
    expect(checks.check(workload, forecast, work, reference) == [], "clean forecasts match their own reference")

    path = work / "out" / "forecasts.csv"
    original = path.read_bytes()
    col = 4  # q50

    def scale(rows):
        rows[1][col] = repr(float(rows[1][col]) * 1.01)

    _rewrite(path, scale)
    problems = checks.check(workload, forecast, work, reference)
    expect(any("differs from reference" in p for p in problems), f"a 1% change to one quantile fails the reference check: {problems[:1]}")

    for label, edit in (("a NaN quantile", lambda rows: rows[2].__setitem__(col, "nan")), ("a dropped row", lambda rows: rows.pop(3))):
        path.write_bytes(original)
        _rewrite(path, edit)
        problems = checks.invariants(workload, forecast, work)
        expect(bool(problems), f"{label} fails the invariant check: {problems[:1]}")
    shutil.rmtree(result["work_dir"], ignore_errors=True)


def broken_traces_fail() -> None:
    def span(id_, name, start, end, parent, self_s):
        return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "self_s": self_s}

    def trace(spans, hot=()):
        return {"spans": list(spans), "hot": list(hot), "counts": {}, "extra": {}}

    root = span(0, "cli.train", 0.0, 1.0, None, 0.6)
    fit = span(1, "emos.fit_emos", 0.2, 0.6, 0, 0.1)
    hot = {"span": 1, "name": "emos.loglik_and_gradient", "calls": 3, "s": 0.3, "self_s": 0.3}
    expect(run.self_time_problems(trace([root, fit], [hot])) == [], "a well-formed trace passes the structure check")
    broken = {
        "a hot call outside the command": trace([root, fit], [hot, dict(hot, span=None, s=0.0, self_s=0.0)]),
        "a span outside the command": trace([root, fit, span(2, "io.read_json", 1.0, 1.1, None, 0.1)], [hot]),
        "a wrapper installed twice": trace([root, dict(fit, self_s=0.0), span(2, "emos.fit_emos", 0.2, 0.6, 1, 0.1)], [dict(hot, span=2)]),
        "self times that miss the command's duration": trace([root, dict(fit, self_s=0.05)], [hot]),
    }
    for label, bad in broken.items():
        problems = run.self_time_problems(bad)
        expect(bool(problems), f"{label} fails the trace check: {problems[:1]}")


def failing_command_counted() -> None:
    def plant(workload: Workload) -> Workload:
        cost_eval = workload.chain[0]
        argv = tuple(a.replace(f"{DATA}/models.json", "missing/models.json") for a in cost_eval.argv)
        return dataclasses.replace(workload, chain=(Command(cost_eval.name, argv, cost_eval.outputs),) + workload.chain[1:])

    result = run.run_workload("value", SEED, 0, False, toy=True, mutate=plant)
    failed = result["failures"]
    expect(not result["correct"] and result["failed"] == 1 and len(failed) == 1, f"a failing command is counted: attempted {result['attempted']}, failed {result['failed']}")
    expect(bool(failed) and failed[0]["exit_code"] == 2 and "missing" in failed[0]["stderr_tail"], "its exit code and the tail of its stderr are kept")
    expect(result["attempted"] == 2 * run.SETUP_REPEATS + 1, "commands after the failure in the chain are not run")
    expect("setup_s" in result["metrics"], "the run still reports what it measured (setup_s)")


def main() -> int:
    benchmark_json_agrees()
    metrics_printed("value", 0, run.END_TO_END)
    metrics_printed("skill", 1, run.PER_LAYER)
    corrupted_outputs_fail()
    broken_traces_fail()
    failing_command_counted()
    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
