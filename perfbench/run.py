"""Benchmark of the inflowcast CLI: workloads refit, skill and value.

    python3 perfbench/run.py --workload skill --seed 2024 --seconds 15 --trace 0

Run from the root of a checkout.  The workload's inputs come from ``--seed``;
every CLI command runs as its own subprocess, one at a time, the way users run
it.  Set-up (synthetic data, plus training where the timed chain needs models)
is repeated three times; the timed chain is repeated until ``--seconds`` is
used (at least once).  Every command's outputs are checked, and on the
reference seed compared with values recorded at the seed commit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs set-up and
chain once untraced and once under ``perfbench/tracer.py`` and prints the
per-layer metrics, including the tracing overhead.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result, with per-command records, output digests and
provenance, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import BUNDLE, NAMES, build  # noqa: E402

ROOT = HERE.parent
REFERENCE_SEED = 2024
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0  # no chain is started that would end after this
CLI = "import sys; from inflowcast.cli import main; sys.exit(main())"

END_TO_END = (
    ("setup_s", "s"),
    ("chain_s", "s"),
    ("chain_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lead_cmd_s", "s"),
)

# (metric, unit); "<module>.<function>.<calls|s|self_s>" come from spans and
# hot-function aggregates, the rest are named counts
PER_LAYER = (
    ("io.read_ensemble_csv.s", "s"),
    ("io.read_ensemble_csv.rows", "count"),
    ("io.read_inflow_csv.s", "s"),
    ("io.read_telemetry_csv.s", "s"),
    ("io.write_table_csv.s", "s"),
    ("io.write_table_csv.rows", "count"),
    ("io.write_json.s", "s"),
    ("io.write_ensemble_csv.s", "s"),
    ("synth.generate_scenario.s", "s"),
    ("telemetry.clean_telemetry.s", "s"),
    ("telemetry.reconstruct_net_inflow.s", "s"),
    ("telemetry.aggregate_and_normalize.s", "s"),
    ("telemetry.records_removed", "count"),
    ("regression.run_cross_validation.s", "s"),
    ("regression.generate_benchmark.calls", "count"),
    ("emos.fit_emos.calls", "count"),
    ("emos.fit_emos.s", "s"),
    ("emos.loglik_and_gradient.calls", "count"),
    ("emos.loglik_and_gradient.s", "s"),
    ("emos.evals_per_start", "count"),
    ("emos.starts_accepted_ratio", "ratio"),
    ("emos.start_loglik_spread", "nats"),
    ("pipeline.build_case_tables.s", "s"),
    ("pipeline.predict_params.s", "s"),
    ("pipeline.train_models.self_s", "s"),
    ("pipeline.verify_skill.self_s", "s"),
    ("pipeline.build_cost_cases.self_s", "s"),
    ("pipeline.cost_cases", "count"),
    ("pipeline.cost_cases_dropped", "count"),
    ("data.build_climatology.calls", "count"),
    ("data.build_climatology.s", "s"),
    ("data.climatology_get.calls", "count"),
    ("data.climatology_hit_ratio", "ratio"),
    ("series.month_of.calls", "count"),
    ("series.window_mean.calls", "count"),
    ("verification.crps_zaga_batch.s", "s"),
    ("verification.crps_zaga_batch.cases", "count"),
    ("verification.fair_crps_sample.calls", "count"),
    ("verification.fair_crps_sample.s", "s"),
    ("verification.fair_crps_many.s", "s"),
    ("verification.bootstrap_spread.calls", "count"),
    ("verification.bootstrap_spread.s", "s"),
    ("verification.stratum_mask.s", "s"),
    ("verification.reliability_diagram.s", "s"),
    ("verification.skill_report.calls", "count"),
    ("zaga.gamma_ppf.calls", "count"),
    ("zaga.gamma_ppf.s", "s"),
    ("costmodel.price_sweep.self_s", "s"),
    ("costmodel.optimal_adjustment.calls", "count"),
    ("costmodel.optimal_adjustment.s", "s"),
    ("costmodel.forecast_atoms.calls", "count"),
    ("costmodel.forecast_atoms.s", "s"),
    ("costmodel.evaluate_case.s", "s"),
    ("costmodel.decisions_per_case", "count"),
    ("cli.synth.s", "s"),
    ("cli.reconstruct-inflow.s", "s"),
    ("cli.train.s", "s"),
    ("cli.forecast.s", "s"),
    ("cli.verify.s", "s"),
    ("cli.cost-eval.s", "s"),
    ("cli.report.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.wrapped_calls", "count"),
)


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


class Runner:
    """Runs one workload's commands in a work directory and keeps their records."""

    def __init__(self, workload, work: Path, reference: dict | None):
        self.workload = workload
        self.work = work
        self.reference = reference
        self.records: list[dict] = []
        # one BLAS thread, so that --threads 1 means one core: a second OpenBLAS
        # thread does not shorten train but doubles its CPU time
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def _argv(self, command, spans: Path | None) -> list[str]:
        if spans is not None:
            return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *command.argv]
        if command.name == BUNDLE:
            return [sys.executable, str(HERE / "telemetry_bundle.py"), *command.argv]
        return [sys.executable, "-c", CLI, *command.argv]

    def run(self, command, cwd: Path, phase: str, traced: bool = False) -> dict:
        """Run one command to completion; its record counts it as one operation."""
        cwd.mkdir(parents=True, exist_ok=True)
        traced = traced and command.name != BUNDLE  # only CLI commands are traced
        spans = cwd / f"{command.name}.spans.json" if traced else None
        with open(cwd / f"{command.name}.stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self._argv(command, spans), cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr_tail = err.read()[-2000:].decode(errors="replace")
        record = {
            "command": command.name,
            "phase": phase,
            "dir": str(cwd.relative_to(self.work)),
            "argv": list(command.argv),
            "traced": traced,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode,
            "stderr_tail": stderr_tail,
            "digests": {o: checks.sha256(cwd / o) for o in command.outputs if (cwd / o).exists()},
            "problems": [],
        }
        if proc.returncode != 0:
            record["problems"].append(f"exit code {proc.returncode}")
        else:
            record["problems"] += checks.check(self.workload, command, cwd, self.reference)
        if spans is not None:
            record["trace"] = json.loads(spans.read_text()) if spans.exists() else None
            if record["trace"] is None:
                record["problems"].append("no trace written")
            else:
                record["problems"] += self_time_problems(record["trace"])
        self.records.append(record)
        return record

    def sequence(self, commands, cwd: Path, phase: str, traced: bool = False) -> list[dict] | None:
        """Run commands in order; None once one of them fails."""
        out = []
        for command in commands:
            record = self.run(command, cwd, phase, traced)
            out.append(record)
            if record["problems"]:
                return None
        return out


def self_time_problems(trace: dict) -> list[str]:
    """Check the trace's structure, then that each command's self times add up.

    A trace holds exactly one top-level span, the ``cli.<command>`` call, and
    every other span and hot aggregate lies inside it through the parent links;
    a wrapped call made outside the command, or a wrapper installed twice (a
    span directly inside one of the same name), fails.  Given that structure
    the self times under the top-level span sum to its duration.
    """
    spans = {s["id"]: s for s in trace["spans"]}
    roots = [s for s in spans.values() if s["parent"] is None]
    if len(roots) != 1 or not roots[0]["name"].startswith("cli."):
        return [f"trace has top-level spans {sorted(s['name'] for s in roots)}, expected one cli.<command> span"]
    root = roots[0]["id"]

    def root_of(span_id):
        seen = set()
        while span_id is not None and span_id in spans and span_id not in seen:
            seen.add(span_id)
            if spans[span_id]["parent"] is None:
                return span_id
            span_id = spans[span_id]["parent"]
        return None

    problems = []
    for s in spans.values():
        parent = spans.get(s["parent"])
        if parent is not None and parent["name"] == s["name"]:
            problems.append(f"span {s['name']} directly inside another {s['name']}: wrapped twice")
        if root_of(s["id"]) != root:
            problems.append(f"span {s['name']} lies outside the command's span")
    for h in trace["hot"]:
        if root_of(h["span"]) != root:
            problems.append(f"{h['calls']} calls of {h['name']} lie outside the command's span")
    total_self = sum(s["self_s"] for s in spans.values()) + sum(h["self_s"] for h in trace["hot"])
    duration = roots[0]["end"] - roots[0]["start"]
    if abs(total_self - duration) > 1e-6 * max(1.0, duration):
        problems.append(f"self times sum to {total_self:.6f} s, the command's span lasts {duration:.6f} s")
    return problems[:5]


def flag_nondeterminism(runs: list[list[dict]]) -> None:
    """Mark a record failed when an output's digest differs from an earlier rerun's."""
    first = {}
    for records in runs:
        for record in records:
            for output, digest in record["digests"].items():
                key = (record["command"], output)
                if first.setdefault(key, digest) != digest:
                    record["problems"].append(f"{output} differs between reruns of one commit")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, setups: list[list[dict]], chains: list[list[dict]]) -> dict:
    values = {
        "setup_s": [sum(r["wall_s"] for r in s) for s in setups],
        "chain_s": [sum(r["wall_s"] for r in c) for c in chains],
        "chain_cpu_s": [sum(r["cpu_s"] for r in c) for c in chains],
        "peak_rss_mb": [max(r["rss_mb"] for c in chains for r in c)] if chains else [],
        "lead_cmd_s": [next(r["wall_s"] for r in c if r["command"] == workload.lead) for c in chains],
    }
    return {
        name: {"value": statistics.median(values[name]), "unit": unit, "samples": len(values[name])}
        for name, unit in END_TO_END
        if values[name]
    }


def per_layer(traced: list[dict], overhead_s: float) -> dict:
    calls, secs, self_s = {}, {}, {}

    def add(name, n, s, own):
        calls[name] = calls.get(name, 0) + n
        secs[name] = secs.get(name, 0.0) + s
        self_s[name] = self_s.get(name, 0.0) + own

    counts: dict[str, float] = {}
    spread = 0.0
    wrapped = 0
    for record in traced:
        trace = record["trace"]
        for span in trace["spans"]:
            add(span["name"], 1, span["end"] - span["start"], span["self_s"])
        for hot in trace["hot"]:
            add(hot["name"], hot["calls"], hot["s"], hot["self_s"])
            wrapped += hot["calls"]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
            wrapped += n if name.endswith(".calls") else 0
        wrapped += len(trace["spans"])
        spread = max(spread, trace["extra"].get("emos.start_loglik_spread", 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "emos.evals_per_start": ratio(calls.get("emos.loglik_and_gradient", 0), counts.get("emos.starts", 0)),
        "emos.starts_accepted_ratio": ratio(counts.get("emos.starts_accepted", 0), counts.get("emos.starts", 0)),
        "emos.start_loglik_spread": spread,
        "data.climatology_hit_ratio": ratio(
            counts.get("data.climatology_get.calls", 0) - calls.get("data.build_climatology", 0), counts.get("data.climatology_get.calls", 0)
        ),
        "costmodel.decisions_per_case": ratio(calls.get("costmodel.optimal_adjustment", 0), counts.get("pipeline.cost_cases", 0)),
        "trace.overhead_s": overhead_s,
        "trace.wrapped_calls": wrapped,
    }
    out = {}
    for name, unit in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        elif field == "calls":
            value = calls.get(stem, 0)
        elif field == "s":
            value = secs.get(stem, 0.0)
        elif field == "self_s":
            value = self_s.get(stem, 0.0)
        else:
            value = 0  # a named count the workload never reached
        out[name] = {"value": value, "unit": unit, "samples": 1}
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def load_reference(name: str, seed: int, toy: bool) -> dict | None:
    path = HERE / "reference" / f"{name}.json"
    if toy or seed != REFERENCE_SEED or not path.exists():
        return None
    return json.loads(path.read_text())


def run_tree(runner, workload, base: Path, traced: bool, repeats: int, seconds: float, started: float):
    """Set up ``repeats`` times, then repeat the chain while it fits in ``seconds``.

    Returns the records of each complete set-up and chain; a failed one ends
    the sequence and leaves its records only in ``runner.records``.
    """
    base.mkdir(parents=True)
    (base / "bench.ini").write_text(workload.config)
    setups, chains = [], []
    for k in range(repeats):
        records = runner.sequence(workload.setup, base / f"setup{k}", "setup", traced)
        if records is None:
            return setups, chains
        setups.append(records)
    window_start = time.perf_counter()
    while True:
        records = runner.sequence(workload.chain, base / f"chain{len(chains)}", "chain", traced)
        if records is None:
            return setups, chains
        chains.append(records)
        last = sum(r["wall_s"] for r in records)
        now = time.perf_counter()
        if now - window_start + last > seconds or now - started + last > RUN_BUDGET_S:
            return setups, chains


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False, keep: bool = False, mutate=None, compare: bool = True) -> dict:
    """Set up, run and check one workload; returns the full result.

    ``keep`` leaves the work directory in place; ``mutate`` may replace the
    workload before it runs (the self-test uses it to plant a failing command);
    ``compare=False`` checks invariants only, as when the reference is rewritten.
    """
    started = time.perf_counter()
    workload = build(name, seed, toy)
    if mutate is not None:
        workload = mutate(workload)
    reference = load_reference(name, seed, toy) if compare else None
    work = ROOT / ".perfbench" / "work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workload, work, reference.get("values") if reference else None)

    # a traced run sets up and runs the chain once untraced, then once traced
    repeats, window = (1, 0.0) if trace else (SETUP_REPEATS, seconds)
    traced_chains = []
    try:
        setups, chains = run_tree(runner, workload, work / "plain", False, repeats, window, started)
        if trace:
            _, traced_chains = run_tree(runner, workload, work / "traced", True, repeats, window, started)
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)
    flag_nondeterminism([[r for r in runner.records if r["phase"] == phase] for phase in ("setup", "chain")])

    if trace:
        overhead = 0.0
        if chains and traced_chains:
            overhead = sum(r["wall_s"] for r in traced_chains[0]) - statistics.median(sum(r["wall_s"] for r in c) for c in chains)
        metrics = per_layer([r for r in runner.records if r.get("trace")], overhead)
    else:
        metrics = end_to_end(workload, setups, chains)

    failed = [r for r in runner.records if r["problems"]]
    expected = [n for n, _ in (PER_LAYER if trace else END_TO_END)]
    correct = not failed and all(n in metrics for n in expected)
    digest_changes = []
    if reference:
        for record in runner.records:
            for output, digest in record["digests"].items():
                if reference["digests"].get(f"{record['phase']}/{output}", digest) != digest:
                    digest_changes.append(f"{record['phase']}/{output}")
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "correct": correct,
        "attempted": len(runner.records),
        "failed": len(failed),
        "metrics": metrics,
        "reference_checked": reference is not None,
        "digests_changed_from_reference": sorted(set(digest_changes)),
        "failures": [{k: r[k] for k in ("phase", "command", "dir", "exit_code", "problems", "stderr_tail")} for r in failed],
        "records": [{k: v for k, v in r.items() if k != "trace"} for r in runner.records],
        "provenance": provenance(seed),
        "elapsed_s": time.perf_counter() - started,
        "work_dir": str(work),
    }
    return result


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(src),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
    }


def print_table(result: dict) -> None:
    prov = result["provenance"]
    print(
        f"# {result['workload']}: seed {result['seed']}, trace {result['trace']}, "
        f"{prov['cores']} cores, Python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
        f"commit {prov['commit'][:12]}, src {prov['src_lines']} lines"
    )
    for name, m in result["metrics"].items():
        print(f"{result['workload']:6s} {name:40s} {m['value']:14.6f} {m['unit']:6s} samples={m['samples']}")
    checked = "reference + invariants" if result["reference_checked"] else "invariants"
    print(f"{result['workload']:6s} output checks ({checked}): {result['attempted'] - result['failed']}/{result['attempted']} commands passed, {result['failed']} failed")
    for f in result["failures"]:
        print(f"{result['workload']:6s} FAILED {f['phase']} {f['command']} ({f['dir']}): {'; '.join(f['problems'])}")
        if f["stderr_tail"].strip():
            print("       stderr: " + f["stderr_tail"].strip().splitlines()[-1])
    if result["digests_changed_from_reference"]:
        print(f"{result['workload']:6s} outputs whose digest differs from the reference: {', '.join(result['digests_changed_from_reference'])}")


def write_result(result: dict) -> Path:
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    suffix = "-toy" if result["toy"] else ""
    path = out / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}{suffix}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    return path


def record_reference(name: str) -> Path:
    """Write reference values and digests for ``name`` on the reference seed."""
    result = run_workload(name, REFERENCE_SEED, 0, False, keep=True, compare=False)
    if not result["correct"]:
        raise SystemExit(f"{name}: run failed, no reference written: {result['failures']}")
    work = Path(result["work_dir"]) / "plain"
    workload = build(name, REFERENCE_SEED)
    values, digests = {}, {}
    for phase, commands, cwd in (("setup", workload.setup, work / "setup0"), ("chain", workload.chain, work / "chain0")):
        for command in commands:
            values.update(checks.extract(command.name, cwd))
            digests.update({f"{phase}/{o}": checks.sha256(cwd / o) for o in command.outputs})
    shutil.rmtree(work.parent, ignore_errors=True)
    # 12 significant digits keep the 1e-9 relative check on inflow meaningful;
    # 8 suffice for the 1e-4 check on the forecast quantiles, the bulk of the file
    rounded = {
        kind: {key: [float(f"{x:.{8 if kind == 'forecasts' else 12}g}") if isinstance(x, float) else x for x in v] for key, v in table.items()}
        for kind, table in values.items()
    }
    path = HERE / "reference" / f"{name}.json"
    path.write_text(json.dumps({"seed": REFERENCE_SEED, "values": rounded, "digests": digests}, sort_keys=True, separators=(",", ":")) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring window for repeated chains")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="self-test size: tiny scenario, no reference comparison")
    parser.add_argument("--record-reference", action="store_true", help="rewrite perfbench/reference/<workload>.json")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a running command is stopped too

    if not (ROOT / "src" / "inflowcast" / "cli.py").is_file():
        print(f"perfbench: no inflowcast sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    if args.record_reference:
        for name in names:
            print(f"wrote {record_reference(name).relative_to(ROOT)}")
        return 0

    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy)
        write_result(result)
        print_table(result)
        results.append(result)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{n}" if prefix else n): {"value": m["value"], "unit": m["unit"]}
            for r in results
            for n, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
