"""Output checks for the benchmark's commands.

Every command's outputs are checked for the invariants that hold on any seed:
each file the manifest names exists, every number is finite and the expected
row keys are present.  On the reference seed the extracted values are also
compared with those recorded at the seed commit, to tolerances that leave
room for exact-CRPS and Newton-fit changes but catch a wrong result.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

from workloads import YEARS

FORECAST_TYPES = ("climatological", "deterministic", "probabilistic")
QUANTILES = ("q05", "q25", "q50", "q75", "q95")

# tolerance per extracted value: ("rel", r), ("abs", a) or ("eq",)
TOLERANCES = {
    "models": (("rel", 1e-6),),
    "forecasts": (("rel", 1e-4),) * len(QUANTILES),
    "rec_inflow": (("rel", 1e-9),),
    "skill": (("abs", 1e-3), ("abs", 1e-3), ("eq",)),
    "values": (("abs", 0.01), ("eq",)),
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_csv(rows: list[dict], path: Path) -> list[str]:
    for lineno, row in enumerate(rows, start=2):
        for column, raw in row.items():
            try:
                value = float(raw)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                return [f"{path.name}:{lineno}: non-finite {column}={raw}"]
    return []


def _finite_json(node, where: str) -> list[str]:
    if isinstance(node, float) and not math.isfinite(node):
        return [f"{where}: non-finite number"]
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _finite_json(v, f"{where}.{k}")][:1]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _finite_json(v, f"{where}[{i}]")][:1]
    return []


def _load_json(path: Path):
    # json accepts NaN and Infinity, so the finiteness walk sees them
    return json.loads(path.read_text())


def extract(command: str, cwd: Path) -> dict[str, dict[str, list]]:
    """Reference values a command's outputs carry, keyed by extractor name."""
    out: dict[str, dict[str, list]] = {}
    if command == "train":
        models = next(p for p in (cwd / "out/models.json", cwd / "data/models.json") if p.exists())
        out["models"] = {f"{m['horizon']}|{m['fold_year']}": [m["loglik"]] for m in _load_json(models)["emos"]}
    elif command == "forecast":
        out["forecasts"] = {
            f"{r['issue_date']}|{r['horizon']}": [float(r[q]) for q in QUANTILES] for r in _csv(cwd / "out/forecasts.csv")
        }
    elif command == "reconstruct-inflow":
        out["rec_inflow"] = {r["date"]: [float(r["inflow_norm"])] for r in _csv(cwd / "rec/inflow.csv")}
    elif command == "verify":
        out["skill"] = {
            f"{r['variable']}|{r['horizon']}|{r['stratum']}": [float(r["fcrpss"]), float(r["se"]), int(r["n"])]
            for r in _csv(cwd / "out/skill_by_horizon.csv")
        }
    elif command == "cost-eval":
        out["values"] = {
            f"{r['forecast_type']}|{r['horizon']}|{float(r['differential']):g}": [float(r["water_value"]), int(r["n"])]
            for r in _csv(cwd / "out/value_report.csv")
        }
    return out


def _within(a: float, b: float, tol) -> bool:
    if tol[0] == "eq":
        return a == b
    if tol[0] == "abs":
        return abs(a - b) <= tol[1]
    return abs(a - b) <= tol[1] * max(abs(a), abs(b), 1e-3)


def compare(name: str, got: dict[str, list], want: dict[str, list]) -> list[str]:
    """Differences between extracted values and their reference."""
    missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
    if missing or extra:
        return [f"{name}: keys differ from reference (missing {missing[:3]}, unexpected {extra[:3]})"]
    tols = TOLERANCES[name]
    for key in sorted(want):
        for tol, a, b in zip(tols, got[key], want[key]):
            if not _within(a, b, tol):
                return [f"{name}[{key}]: {a!r} differs from reference {b!r} beyond {tol}"]
    return []


def issue_dates(years) -> list[str]:
    """The synthetic scenario's issue dates: every Monday and Thursday of ``years``."""
    day = dt.date(int(min(years)), 1, 1)
    out = []
    while day.year <= int(max(years)):
        if day.weekday() in (0, 3):
            out.append(day.isoformat())
        day += dt.timedelta(days=1)
    return out


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def invariants(workload, command, cwd: Path) -> list[str]:
    """Checks that hold on every seed: outputs present, finite, with the expected keys."""
    problems = [f"missing output {o}" for o in command.outputs if not (cwd / o).exists()]
    if problems:
        return problems
    for manifest in (cwd / o for o in command.outputs if o.endswith("_manifest.json")):
        listed = _load_json(manifest).get("outputs", [])
        problems += [f"{manifest.name} lists missing output {o}" for o in listed if not (manifest.parent / o).exists()]
    for path in (cwd / o for o in command.outputs):
        if path.name == "ensemble.csv":
            continue  # 10^5 rows of synthetic input; its reader validates every value
        if path.suffix == ".json":
            problems += _finite_json(_load_json(path), path.name)
        elif path.suffix == ".csv":
            problems += _finite_csv(_csv(path), path)
    if problems:
        return problems

    years = set(YEARS)
    horizons = set(workload.horizons)
    values = extract(command.name, cwd)
    if "models" in values:
        keys = {tuple(k.split("|")) for k in values["models"]}
        problems += _expect(keys == {(h, y) for h in horizons for y in years}, f"models.json: (horizon, fold) keys {sorted(keys)[:3]}... expected {len(horizons) * len(years)}")
    if "forecasts" in values:
        rows = _csv(cwd / "out/forecasts.csv")
        want = {f"{d}|{h}" for d in issue_dates(YEARS) for h in horizons}
        problems += _expect(len(rows) == len(want) and set(values["forecasts"]) == want, "forecasts.csv: rows are not one per (issue, horizon)")
        problems += _expect(all(q == sorted(q) for q in values["forecasts"].values()), "forecasts.csv: quantiles not ordered")
    if "rec_inflow" in values:
        problems += _expect(len(values["rec_inflow"]) > 0, "reconstructed inflow is empty")
    if "skill" in values:
        for h in horizons:
            for var in ("inflow_emos", "inflow_benchmark", "precip_ensemble"):
                problems += _expect(f"{var}|{h}|all" in values["skill"], f"skill_by_horizon.csv: no {var} row for {h}")
        week1 = values["skill"].get("inflow_emos|Forecast Week 1|all")
        if week1 is not None:
            problems += _expect(week1[0] > 0, f"week-1 inflow_emos fCRPSS {week1[0]} is not positive")
    if "values" in values:
        groups = horizons | {"all"}
        want = {f"{t}|{g}|{float(d):g}" for t in FORECAST_TYPES for g in groups for d in workload.differentials}
        problems += _expect(set(values["values"]) == want, f"value_report.csv: {len(values['values'])} (type, horizon, differential) rows, expected {len(want)}")
        problems += _expect(all(v[1] > 0 for v in values["values"].values()), "value_report.csv: a row has n = 0")
        n_decisions = len(_csv(cwd / "out/decisions.csv"))
        problems += _expect(n_decisions > 0 and n_decisions % len(FORECAST_TYPES) == 0, "decisions.csv: not three decisions per case")
    if command.name == "report":
        report = _load_json(cwd / "out/report.json")
        problems += _expect(bool(report.get("skill") or report.get("value_gains")), "report.json has neither skill nor value gains")
    return problems


def check(workload, command, cwd: Path, reference: dict | None) -> list[str]:
    """Every problem with one command's outputs; empty when they are correct."""
    problems = invariants(workload, command, cwd)
    if problems or reference is None:
        return problems
    for name, got in extract(command.name, cwd).items():
        if name in reference:
            problems += compare(name, got, reference[name])
    return problems
