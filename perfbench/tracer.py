"""Outside-in layer trace of one inflowcast command.

Run as a script it installs wrappers on the library's public functions and
calls ``inflowcast.cli.main(argv)`` in this process:

    python3 perfbench/tracer.py --spans out.json -- --seed 7 train ...

Three kinds of wrapper are used:

* stage functions record one span per call: name, start, end, parent;
* hot functions (more than about 10k calls in a run) only add a call count,
  their time and their self time to the nearest enclosing span;
* counted functions only add a call count.

A wrapper is installed on every module attribute that holds the original
function, so ``pipeline.fit_emos`` is traced as well as ``emos.fit_emos``.
Self time is a frame's duration minus the durations of the wrapped calls
directly inside it, so the self times within a top-level span add up to its
duration.  Spans stay in memory and are written as JSON when the command ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

SPAN, HOT, COUNT = "span", "hot", "count"
COMMANDS = ("synth", "reconstruct-inflow", "train", "forecast", "verify", "cost-eval", "report")

# (module, attribute, kind); ``Class.method`` patches the class attribute
TARGETS = (
    ("io", "read_ensemble_csv", SPAN),
    ("io", "read_inflow_csv", SPAN),
    ("io", "read_reanalysis_csv", SPAN),
    ("io", "read_nao_csv", SPAN),
    ("io", "read_telemetry_csv", SPAN),
    ("io", "read_json", SPAN),
    ("io", "read_table_csv", SPAN),
    ("io", "write_ensemble_csv", SPAN),
    ("io", "write_inflow_csv", SPAN),
    ("io", "write_reanalysis_csv", SPAN),
    ("io", "write_nao_csv", SPAN),
    ("io", "write_telemetry_csv", SPAN),
    ("io", "write_table_csv", SPAN),
    ("io", "write_json", SPAN),
    ("synth", "generate_scenario", SPAN),
    ("telemetry", "clean_telemetry", SPAN),
    ("telemetry", "reconstruct_net_inflow", SPAN),
    ("telemetry", "aggregate_and_normalize", SPAN),
    ("regression", "run_cross_validation", SPAN),
    ("regression", "generate_benchmark", HOT),
    ("emos", "fit_emos", SPAN),
    ("emos", "loglik_and_gradient", HOT),
    ("pipeline", "build_case_tables", SPAN),
    ("pipeline", "train_models", SPAN),
    ("pipeline", "predict_params", SPAN),
    ("pipeline", "forecast_rows", SPAN),
    ("pipeline", "verify_skill", SPAN),
    ("pipeline", "build_cost_cases", SPAN),
    ("data", "build_climatology", SPAN),
    ("data", "ClimatologyCache.get", COUNT),
    ("series", "month_of", COUNT),
    ("series", "DailySeries.window_mean", COUNT),
    ("verification", "crps_zaga_batch", SPAN),
    ("verification", "fair_crps_sample", HOT),
    ("verification", "fair_crps_many", SPAN),
    ("verification", "bootstrap_spread", SPAN),
    ("verification", "stratum_mask", SPAN),
    ("verification", "reliability_diagram", SPAN),
    ("verification", "skill_report", SPAN),
    ("zaga", "gamma_ppf", HOT),
    ("costmodel", "price_sweep", SPAN),
    ("costmodel", "evaluate_case", HOT),
    ("costmodel", "optimal_adjustment", HOT),
    ("costmodel", "forecast_atoms", HOT),
)

# metric stems of the patched methods
METRIC_NAMES = {"ClimatologyCache.get": "climatology_get", "DailySeries.window_mean": "window_mean"}


class _Frame:
    __slots__ = ("child", "span")

    def __init__(self, span):
        self.child = 0.0  # summed durations of wrapped calls directly inside
        self.span = span  # id of this frame's span, or of the nearest enclosing one


class Tracer:
    """In-memory spans, hot-function aggregates and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.hot: dict[tuple[int, str], list] = {}  # (span id, name) -> [calls, s, self_s]
        self.counts: Counter = Counter()
        self.extra: dict[str, float] = {}  # maxima kept next to the counters
        self._stack: list[_Frame] = [_Frame(None)]
        self._next_id = 0

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = _Frame(span_id)
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                parent.child += end - start
                self.spans.append(
                    {
                        "id": span_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent.span,
                        "self_s": (end - start) - frame.child,
                    }
                )
            if on_return is not None:
                on_return(self, result, fn, args, kwargs)
            return result

        return wrapper

    def hot_call(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            frame = _Frame(parent.span)
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.clock() - start
                self._stack.pop()
                parent.child += dur
                agg = self.hot.setdefault((parent.span, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame.child
            if on_return is not None:
                on_return(self, result, fn, args, kwargs)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spans": sorted(self.spans, key=lambda s: s["id"]),
            "hot": [
                {"span": span, "name": name, "calls": c, "s": s, "self_s": self_s}
                for (span, name), (c, s, self_s) in self.hot.items()
            ],
            "counts": dict(sorted(self.counts.items())),
            "extra": dict(sorted(self.extra.items())),
        }


# -- counters read from arguments and results -------------------------------


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _ensemble_rows(tracer, result, fn, args, kwargs):
    tracer.counts["io.read_ensemble_csv.rows"] += sum(int(f.members.size) for f in result)


def _table_rows(tracer, result, fn, args, kwargs):
    tracer.counts["io.write_table_csv.rows"] += len(_bound(fn, args, kwargs)["rows"])


def _records_removed(tracer, result, fn, args, kwargs):
    tracer.counts["telemetry.records_removed"] += int(result[1].n_removed)


def _emos_starts(tracer, result, fn, args, kwargs):
    tracer.counts["emos.starts"] += int(_bound(fn, args, kwargs)["n_starts"])
    tracer.counts["emos.starts_accepted"] += len(result.start_logliks)
    spread = max(result.start_logliks) - min(result.start_logliks)
    tracer.extra["emos.start_loglik_spread"] = max(tracer.extra.get("emos.start_loglik_spread", 0.0), spread)


def _cost_cases(tracer, result, fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    observed = sum(int((~np.isnan(a["tables"][h.name].obs_inflow)).sum()) for h in a["models"].horizons)
    tracer.counts["pipeline.cost_cases"] += len(result)
    tracer.counts["pipeline.cost_cases_dropped"] += observed - len(result)


def _crps_cases(tracer, result, fn, args, kwargs):
    tracer.counts["verification.crps_zaga_batch.cases"] += len(result)


ON_RETURN = {
    "io.read_ensemble_csv": _ensemble_rows,
    "io.write_table_csv": _table_rows,
    "telemetry.clean_telemetry": _records_removed,
    "emos.fit_emos": _emos_starts,
    "pipeline.build_cost_cases": _cost_cases,
    "verification.crps_zaga_batch": _crps_cases,
}


def install(tracer: Tracer) -> None:
    """Wrap every target wherever an inflowcast module holds a reference to it."""
    modules = {name: importlib.import_module(f"inflowcast.{name}") for name in {"cli"} | {t[0] for t in TARGETS}}
    package = [m for n, m in sorted(sys.modules.items()) if n == "inflowcast" or n.startswith("inflowcast.")]
    for module_name, attr, kind in TARGETS:
        owner = modules[module_name]
        name = f"{module_name}.{METRIC_NAMES.get(attr, attr)}"
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        if kind == SPAN:
            wrapped = tracer.span(name, original, ON_RETURN.get(name))
        elif kind == HOT:
            wrapped = tracer.hot_call(name, original, ON_RETURN.get(name))
        else:
            wrapped = tracer.counted(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="JSON file the trace is written to")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    tracer = Tracer()
    install(tracer)
    from inflowcast import cli

    command = next((a for a in rest if a in COMMANDS), "unknown")
    try:
        code = tracer.span(f"cli.{command}", cli.main)(rest)
    finally:
        Path(args.spans).write_text(json.dumps(tracer.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main())
