"""The golden chain: a fixed small run of every command, and the record of its outputs in ``tiny_run.json``.

``tests/test_golden.py`` reruns the chain and compares each output with the
record.  A change that alters outputs on purpose rewrites the record from the
repository root with

    PYTHONPATH=src python tests/golden/record.py

and its diff then shows which outputs moved.  The chain runs with relative
paths in a scratch directory, so the manifests name the same inputs wherever
it runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from inflowcast.cli import main

GOLDEN = Path(__file__).with_name("tiny_run.json")
SEED = "11"
CONFIG = """\
[synth]
years = 5
members = 3
lead_days = 42

[horizons]
names = Forecast Week 1

[verification]
bootstrap = 20

[cost]
differential_min = 30
differential_max = 90
differential_step = 30
bootstrap = 20
"""
MAX_STORED = 1000  # a file with more numbers keeps only its digest and its count of numbers
_PLANT = ("telemetry", "efficiency", "net_head", "storage", "compensation")
_DATA = ["--inflow", "synth/inflow.csv", "--ensemble", "synth/ensemble.csv"]
_SCORED = ["--models", "train/models.json", *_DATA]
COMMANDS = [
    ["synth", "--with-telemetry", "--out", "synth"],
    ["reconstruct-inflow", *(a for t in _PLANT for a in (f"--{t.replace('_', '-')}", f"synth/{t}.csv")), "--out", "reconstruct"],
    ["train", *_DATA, "--out", "train"],
    ["forecast", *_SCORED, "--out", "forecast"],
    ["verify", *_SCORED, "--reanalysis", "synth/reanalysis.csv", "--nao", "synth/nao.csv", "--out", "verify"],
    ["cost-eval", *_SCORED, "--out", "cost-eval"],
    ["report", "--skill", "verify/skill.json", "--values", "cost-eval/value_report.csv", "--out", "report"],
]


def run_chain(workdir: Path) -> None:
    """Run the chain in ``workdir``, which is the current directory meanwhile."""
    home = Path.cwd()
    os.chdir(workdir)
    try:
        Path("run.ini").write_text(CONFIG)
        for command in COMMANDS:
            if main(["--config", "run.ini", "--seed", SEED, *command]) != 0:
                raise RuntimeError(f"golden chain: {command[0]} failed")
    finally:
        os.chdir(home)


def _json_numbers(value, out: list[float]) -> list[float]:
    if isinstance(value, dict):
        for v in value.values():
            _json_numbers(v, out)
    elif isinstance(value, list):
        for v in value:
            _json_numbers(v, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(float(value))
    return out


def _float_or_none(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def numbers(path: Path) -> list[float]:
    """The numbers of a JSON file (its ints and floats) or of a CSV (its fields that parse as floats), in file order."""
    if path.suffix == ".json":
        return _json_numbers(json.loads(path.read_text()), [])
    with open(path, newline="") as fh:
        return [x for row in csv.reader(fh) for x in map(_float_or_none, row) if x is not None]


def outputs(workdir: Path) -> dict:
    """Per output of the chain (by path relative to ``workdir``): its SHA-256, its count of numbers and, up to MAX_STORED, the numbers."""
    record = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file() and p.name != "run.ini"):
        values = numbers(path)
        entry = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "count": len(values)}
        if len(values) <= MAX_STORED:
            entry["numbers"] = values
        record[path.relative_to(workdir).as_posix()] = entry
    return record


def largest_moves(old: list[float], new: list[float]) -> tuple[float, float]:
    """The largest absolute and relative moves between two equally long lists of numbers (NaN matches NaN)."""
    absolute = relative = 0.0
    for a, b in zip(old, new, strict=True):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        move = abs(b - a)
        absolute = max(absolute, move)
        relative = max(relative, move / abs(a) if a else math.inf)
    return absolute, relative


def versions() -> dict:
    """The builds the digests were recorded with."""
    return {"numpy": np.__version__, "python": platform.python_version()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_chain(Path(tmp))
        record = {"seed": int(SEED), "versions": versions(), "files": outputs(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(record['files'])} files)", file=sys.stderr)
