"""The benchmark's workloads: scenario, set-up commands and the timed chain.

Every command is given as the argument list of the ``inflowcast`` CLI, run
from a directory of its own under the run's work directory.  Set-up writes
its data to ``data/``; the timed chain reads it through ``../setup0/data``,
so the manifests of repeated chains are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

DATA = "../setup0/data"
YEARS = tuple(str(y) for y in range(2009, 2009 + 5))  # synth's default start year, five years
BUNDLE = "bundle"  # pseudo-command: perfbench/telemetry_bundle.py


@dataclass(frozen=True)
class Command:
    name: str  # CLI sub-command, or BUNDLE
    argv: tuple[str, ...]  # arguments after the program name
    outputs: tuple[str, ...]  # files it must write, relative to its directory


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # INI text given to every command with --config
    setup: tuple[Command, ...]
    chain: tuple[Command, ...]
    lead: str  # the chain command reported as lead_cmd_s
    horizons: tuple[str, ...]
    differentials: tuple[int, ...] = ()


def _cli(seed: int, command: str, out: str, *args: str, outputs: tuple[str, ...] = ()) -> Command:
    """One inflowcast command writing ``outputs`` and its manifest to ``out``."""
    argv = ("--config", "../bench.ini", "--seed", str(seed), command, *args, "--out", out)
    manifest = f"{command.replace('-', '_')}_manifest.json"
    return Command(command, argv, tuple(f"{out}/{o}" for o in outputs + (manifest,)))


def _synth(seed: int) -> Command:
    return _cli(seed, "synth", "data", outputs=("inflow.csv", "inflow_meta.json", "reanalysis.csv", "ensemble.csv", "nao.csv"))


def _train(seed: int, data: str, out: str) -> Command:
    return _cli(seed, "train", out, "--inflow", f"{data}/inflow.csv", "--ensemble", f"{data}/ensemble.csv", outputs=("models.json",))


def _scored(seed: int, command: str, models: str, *args: str, outputs: tuple[str, ...]) -> Command:
    """forecast, verify or cost-eval on the set-up data."""
    return _cli(seed, command, "out", "--models", models, "--inflow", f"{DATA}/inflow.csv", "--ensemble", f"{DATA}/ensemble.csv", *args, outputs=outputs)


def _ini(sections: dict) -> str:
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in sections.items())


def build(name: str, seed: int, toy: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``toy`` shrinks it for the self-test."""
    # Five years is the fewest the default climatology minimum accepts (three
    # years besides the forecast year and its successor).  Five members and
    # few horizons keep each chain at 5-10 s, so a run is short next to the
    # minute-long phases in which a shared machine's speed drifts.  The
    # self-test thins every ensemble to three members.
    members = 3 if toy else 5
    synth = {"years": len(YEARS), "members": members}
    if name == "refit":
        horizons = ("Forecast Week 1",) if toy else ("Forecast Week 1", "4 Week Forecast")
        hours = 24 * 60 if toy else 8760
        config = _ini({"synth": synth, "horizons": {"names": ", ".join(horizons)}})
        tables = ("telemetry", "efficiency", "net_head", "storage", "compensation")
        bundle = Command(BUNDLE, ("--seed", str(seed), "--hours", str(hours), "--out", "data"), tuple(f"data/{t}.csv" for t in tables))
        rec = _cli(seed, "reconstruct-inflow", "rec", *(a for t in tables for a in (f"--{t.replace('_', '-')}", f"{DATA}/{t}.csv")), outputs=("inflow.csv", "inflow_meta.json"))
        train = _train(seed, DATA, "out")
        forecast = _scored(seed, "forecast", "out/models.json", outputs=("forecasts.csv",))
        return Workload(
            "refit",
            config,
            (_synth(seed), bundle),
            (rec, train, forecast),
            "train",
            horizons,
        )
    if name == "skill":
        horizons = ("Forecast Week 1",)
        verification = {"bootstrap": 20 if toy else 1000}
        config = _ini({"synth": synth, "horizons": {"names": ", ".join(horizons)}, "verification": verification})
        verify = _scored(seed, "verify", f"{DATA}/models.json", "--reanalysis", f"{DATA}/reanalysis.csv", "--nao", f"{DATA}/nao.csv", outputs=("skill.json", "skill_by_horizon.csv", "reliability.csv"))
        return Workload(
            "skill",
            config,
            (_synth(seed), _train(seed, "data", "data")),
            (verify, _cli(seed, "report", "out", "--skill", "out/skill.json", outputs=("report.json",))),
            "verify",
            horizons,
        )
    if name == "value":
        horizons = ("Forecast Week 2",)
        step = 50 if toy else 10
        cost = {"differential_step": step, "bootstrap": 20 if toy else 1000}
        if toy:
            cost["quadrature_nodes"] = 32
        config = _ini({"synth": synth, "horizons": {"names": ", ".join(horizons)}, "cost": cost})
        cost_eval = _scored(seed, "cost-eval", f"{DATA}/models.json", outputs=("value_report.csv", "decisions.csv"))
        return Workload(
            "value",
            config,
            (_synth(seed), _train(seed, "data", "data")),
            (cost_eval, _cli(seed, "report", "out", "--values", "out/value_report.csv", outputs=("report.json",))),
            "cost-eval",
            horizons,
            tuple(range(5, 101, step)),
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("refit", "skill", "value")
