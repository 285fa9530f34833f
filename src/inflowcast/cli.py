"""Command-line pipeline: synth, reconstruct-inflow, train, forecast, verify, cost-eval, report.

Every command reads CSV/JSON inputs, writes its outputs plus a ``*_manifest.json``
(resolved config, config hash, seed, package version) into the run directory,
and is byte-for-byte reproducible for a fixed seed and config.  `main` checks
the seed before any command runs and writes the manifest from the names the
command returns.  The run directory is made at the first write, so a command
that fails before it leaves none behind.  Exit codes: 0 success, 2 invalid
input or configuration (an unusable ``--out`` too), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import InflowcastError, InputError, NumericalError
from .horizons import CANONICAL_WINDOWS
from .textio import read_json, read_table_csv, write_json

# Each command imports the modules it computes with: `report` reads and writes
# only through `textio`, so it starts without numpy; `synth`,
# `reconstruct-inflow` and `train` load nothing beyond numpy; `forecast`,
# `verify` and `cost-eval` load the incomplete gamma function on their first
# ZAGA CDF or quantile.
if TYPE_CHECKING:
    from .pipeline import CostSettings, TrainedModels

# Every config key as [section] key: (type, default text, smallest accepted
# value or None).  A float must also be finite.  Keys not listed here, such as
# retired ones, are accepted and ignored.
CONFIG_KEYS = {
    "run": {"seed": (int, "0", 0)},
    "horizons": {"names": (str, ",".join(name for name, _, _ in CANONICAL_WINDOWS), None)},
    "cleaning": {
        "level_min": (float, "150.0", None),
        "level_max": (float, "250.0", None),
        "power_min": (float, "0.0", None),
        "power_max": (float, "12000000.0", None),
        "max_level_step": (float, "5.0", None),
        "max_power_step": (float, "10000000.0", None),
    },
    "emos": {
        "knots": (int, "6", 4),
        "ridge": (float, "1e-6", 0),
        "starts": (int, "3", 1),
        "min_cases": (int, "100", 1),
        "member_wise": (bool, "true", None),
    },
    "verification": {
        "bootstrap": (int, "1000", 2),
        "min_cases": (int, "20", 1),
        "min_climatology_years": (int, "3", 2),  # a fair CRPS needs two climatology values
    },
    "cost": {
        "peak_price": (float, "50.0", None),
        "differential_min": (int, "5", 1),
        "differential_max": (int, "100", None),
        "differential_step": (int, "5", 1),
        "decision_differential": (float, "30.0", None),
        "free_up_frac": (float, "0.2", None),
        "free_down_frac": (float, "0.2", None),
        "stage2_up_frac": (float, "0.2", None),
        "stage2_down_frac": (float, "0.5", None),
        "max_capacity_frac": (float, "2.4", None),
        "energy_per_inflow_day": (float, "10.0", None),
        "bootstrap": (int, "1000", 2),
    },
    "synth": {
        "years": (int, "10", 1),
        "start_year": (int, "2009", 1),
        "members": (int, "11", 2),
        "lead_days": (int, "46", 42),  # the shortest ensemble `read_ensemble_csv` accepts
        "skill_half_life": (float, "10.0", None),  # or none / inf: perfect members
        "seasonal_amplitude": (float, "0.5", 0),  # and below 1
        "drift": (float, "0.12", None),
        "noise_sd": (float, "0.08", 0),
        "marginal": (str, "gamma", None),
    },
}
DEFAULT_CONFIG = {section: {key: default for key, (_, default, _) in keys.items()} for section, keys in CONFIG_KEYS.items()}
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}


def load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.read_dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            read = cfg.read(path)
            config_fingerprint(cfg)  # resolves every value, so a stray '%' fails here
        except configparser.InterpolationError as exc:
            raise InputError(f"config file {path}: [{exc.section}] {exc.option}: {exc.message}") from None
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InputError(f"config file {path}: {exc}") from None
        if not read:
            raise InputError(f"config file not found: {path}")
    return cfg


def config_fingerprint(cfg: configparser.ConfigParser) -> tuple[dict, str]:
    resolved = {section: dict(cfg[section]) for section in cfg.sections()}
    digest = hashlib.sha256(json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    return resolved, digest


def _setting(cfg, section, key):
    """The value of ``[section] key`` parsed by its type in `CONFIG_KEYS`; a bad value is an input error naming the key."""
    kind, _, least = CONFIG_KEYS[section][key]
    text = cfg.get(section, key)
    if kind is str:
        return text
    try:
        value = cfg.getboolean(section, key) if kind is bool else kind(text)
    except ValueError:
        raise InputError(f"config [{section}] {key}: not {_TYPE_NAMES[kind]}: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise InputError(f"config [{section}] {key}: must be finite, got {text!r}")
    if least is not None and value < least:
        raise InputError(f"config [{section}] {key}: must be at least {least}, got {value}")
    return value


def _must(ok: bool, section: str, key: str, rule: str, value) -> None:
    """Refuse ``[section] key`` unless ``ok``: an input error naming the key, the ``rule`` and the value."""
    if not ok:
        raise InputError(f"config [{section}] {key}: must {rule}, got {value}")


def _horizons(cfg):
    from .data import horizon_by_name

    names = [n.strip() for n in _setting(cfg, "horizons", "names").split(",") if n.strip()]
    try:
        horizons = tuple(horizon_by_name(n) for n in names)
    except InputError as exc:
        raise InputError(f"config [horizons] names: {exc}") from None
    if not horizons:
        raise InputError("config [horizons] names: no horizon given")
    for i, h in enumerate(horizons):
        if h in horizons[:i]:
            raise InputError(f"config [horizons] names: {h.name!r} is given twice")
    return horizons


# The file options of every command, by their names in `args`: a manifest lists those given.
INPUT_OPTIONS = (
    "telemetry", "efficiency", "net_head", "storage", "compensation",
    "models", "inflow", "ensemble", "reanalysis", "nao", "skill", "values",
)
INFLOW_SIDECAR = "inflow_meta.json"  # a record written next to every inflow file; no command reads it
VALUE_HEADER = ["forecast_type", "horizon", "differential", "water_value", "se", "n"]  # cost-eval writes, report reads


def write_manifest(args, cfg, seed: int, outputs: list[str]):
    resolved, digest = config_fingerprint(cfg)
    write_json(
        Path(args.out) / f"{args.command.replace('-', '_')}_manifest.json",
        {
            "command": args.command,
            "package_version": __version__,
            "seed": seed,
            "config": resolved,
            "config_sha256": digest,
            "inputs": {name: str(getattr(args, name)) for name in INPUT_OPTIONS if getattr(args, name, None)},
            "outputs": sorted(outputs),
        },
    )


def _seed(args, cfg) -> int:
    if args.seed is None:
        return _setting(cfg, "run", "seed")
    if args.seed < 0:
        raise InputError(f"--seed: must be at least 0, got {args.seed}")
    return args.seed


def _emit(out: Path, name: str, writer, *payload) -> str:
    """Write ``out / name`` by ``writer(path, *payload)``, making ``out`` first; the name, for the manifest."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at ``out`` or above it, say
        raise InputError(f"--out {out}: cannot make the output directory: {exc.strerror}") from None
    writer(out / name, *payload)
    return name


def _emit_inflow(out: Path, series, report=None) -> list[str]:
    """Write ``inflow.csv`` and its sidecar record next to it; both names."""
    from . import io as iomod

    return [_emit(out, "inflow.csv", iomod.write_inflow_csv, series, out / INFLOW_SIDECAR, report), INFLOW_SIDECAR]


# ---------------------------------------------------------------------------
# commands: each takes (args, cfg, seed, out), checks its config keys before
# it writes, and returns the names of the files it wrote in ``out``
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg, seed: int, out: Path) -> list[str]:
    from . import io as iomod
    from .synth import ScenarioConfig, generate_scenario, simulate_telemetry

    synth = partial(_setting, cfg, "synth")
    half_life = None if cfg.get("synth", "skill_half_life").lower() in ("none", "inf") else synth("skill_half_life")
    _must(half_life is None or half_life > 0, "synth", "skill_half_life", "be positive, or none", half_life)
    amplitude, marginal = synth("seasonal_amplitude"), synth("marginal")
    _must(amplitude < 1, "synth", "seasonal_amplitude", "be below 1", amplitude)
    _must(marginal in ("gamma", "lognormal"), "synth", "marginal", "be gamma or lognormal", repr(marginal))
    scenario_cfg = ScenarioConfig(
        n_years=synth("years"),
        start_year=synth("start_year"),
        n_members=synth("members"),
        lead_days=synth("lead_days"),
        seasonal_amplitude=amplitude,
        drift=synth("drift"),
        noise_sd=synth("noise_sd"),
        skill_half_life=half_life,
        marginal=marginal,
        seed=seed,
    )
    scenario = generate_scenario(scenario_cfg)
    written = [
        *_emit_inflow(out, scenario.inflow),
        _emit(out, "reanalysis.csv", iomod.write_reanalysis_csv, scenario.precip),
        _emit(out, "ensemble.csv", iomod.write_ensemble_csv, scenario.forecasts),
        _emit(out, "nao.csv", iomod.write_nao_csv, scenario.nao),
    ]
    if args.with_telemetry:
        sim = simulate_telemetry(seed=seed)
        true_inflow = [[f"{t}Z", v] for t, v in zip(sim.telemetry.timestamps, sim.true_inflow)]
        written += [
            _emit(out, "telemetry.csv", iomod.write_telemetry_csv, sim.telemetry),
            _emit(out, "efficiency.csv", iomod.write_grid_table_csv, sim.curves.efficiency),
            _emit(out, "net_head.csv", iomod.write_grid_table_csv, sim.curves.net_head),
            _emit(out, "storage.csv", iomod.write_storage_csv, sim.curves.storage),
            _emit(out, "compensation.csv", iomod.write_compensation_csv, sim.compensation),
            _emit(out, "true_inflow.csv", iomod.write_table_csv, ["timestamp", "inflow_m3s"], true_inflow),
        ]
    return written


def cmd_reconstruct(args, cfg, seed: int, out: Path) -> list[str]:
    from . import io as iomod
    from .telemetry import CleaningLimits, PlantCurves, aggregate_and_normalize, clean_telemetry, reconstruct_net_inflow

    cleaning = partial(_setting, cfg, "cleaning")
    limits = CleaningLimits(
        level_bounds=(cleaning("level_min"), cleaning("level_max")),
        power_bounds=(cleaning("power_min"), cleaning("power_max")),
        max_level_step=cleaning("max_level_step"),
        max_power_step=cleaning("max_power_step"),
    )
    telemetry = iomod.read_telemetry_csv(args.telemetry)
    curves = PlantCurves(
        efficiency=iomod.read_grid_table_csv(args.efficiency),
        net_head=iomod.read_grid_table_csv(args.net_head),
        storage=iomod.read_storage_csv(args.storage),
    )
    compensation = iomod.read_compensation_csv(args.compensation)
    cleaned, cleaning_report = clean_telemetry(telemetry, limits)
    reconstruction = reconstruct_net_inflow(cleaned, curves, compensation)
    series = aggregate_and_normalize(reconstruction.timestamps, reconstruction.values)
    report = {"cleaning": cleaning_report.to_dict(), "reconstruction": reconstruction.to_report()}
    return _emit_inflow(out, series, report)


def _load_models(path) -> TrainedModels:
    """The models file of `train`; a malformed one is an input error naming the file and key."""
    from .pipeline import TrainedModels

    data = read_json(path)
    try:
        return TrainedModels.from_dict(data)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (InputError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InputError(f"{path}: malformed models file: {exc}") from None


def _load_dataset(args):
    from . import io as iomod

    inflow = iomod.read_inflow_csv(args.inflow)
    issues = iomod.read_ensemble_csv(args.ensemble)
    reanalysis = iomod.read_reanalysis_csv(args.reanalysis) if getattr(args, "reanalysis", None) else None
    nao = iomod.read_nao_csv(args.nao) if getattr(args, "nao", None) else None
    return inflow, issues, reanalysis, nao


def _scored_inputs(args):
    """The read-and-predict stage of `forecast`, `verify` and `cost-eval`.

    Returns the models, the case tables, their out-of-sample predictions, and
    the reanalysis and NAO index (None unless given).
    """
    from .pipeline import build_case_tables, predict_params

    models = _load_models(args.models)
    inflow, issues, reanalysis, nao = _load_dataset(args)
    tables = build_case_tables(issues, inflow, models.horizons, reanalysis=reanalysis)
    return models, tables, predict_params(models, tables), reanalysis, nao


def cmd_train(args, cfg, seed: int, out: Path) -> list[str]:
    from . import io as iomod
    from .pipeline import train_models

    horizons = _horizons(cfg)
    emos = partial(_setting, cfg, "emos")
    settings = dict(
        member_wise=emos("member_wise"),
        n_knots=emos("knots"),
        ridge=emos("ridge"),
        n_starts=emos("starts"),
        min_cases=emos("min_cases"),
    )
    inflow, issues, _, _ = _load_dataset(args)
    models = train_models(issues, inflow, horizons, **settings, seed=seed)
    return [_emit(out, "models.json", iomod.write_json, models.to_dict())]


def cmd_forecast(args, cfg, seed: int, out: Path) -> list[str]:
    from . import io as iomod
    from .pipeline import FORECAST_HEADER, forecast_rows

    models, tables, predictions, _, _ = _scored_inputs(args)
    rows = forecast_rows(models, tables, predictions)
    return [_emit(out, "forecasts.csv", iomod.write_table_csv, FORECAST_HEADER, rows)]


def cmd_verify(args, cfg, seed: int, out: Path) -> list[str]:
    from . import io as iomod
    from .pipeline import verify_skill

    verification = partial(_setting, cfg, "verification")
    settings = dict(
        n_boot=verification("bootstrap"),
        min_cases=verification("min_cases"),
        min_clim_years=verification("min_climatology_years"),
    )
    models, tables, predictions, reanalysis, nao = _scored_inputs(args)
    report = verify_skill(models, tables, predictions, nao=nao, reanalysis=reanalysis, seed=seed, **settings)
    if not report.skill:
        least, years = settings["min_cases"], settings["min_clim_years"]
        raise InputError(f"nothing to score: no horizon has [verification] min_cases = {least} cases with min_climatology_years = {years} years of climatology")
    skill_rows = [
        [var, r.horizon, r.stratum, r.fcrpss, r.se, r.spread, r.skill_class, r.n_cases]
        for var, r in report.skill
    ]
    rel_rows = [
        [h, level, cov, d.n_cases] for h, d in report.reliability.items() for level, cov in zip(d.levels, d.coverage)
    ]
    skill_header = ["variable", "horizon", "stratum", "fcrpss", "se", "spread", "skill_class", "n"]
    return [
        _emit(out, "skill.json", iomod.write_json, report.to_dict()),
        _emit(out, "skill_by_horizon.csv", iomod.write_table_csv, skill_header, skill_rows),
        _emit(out, "reliability.csv", iomod.write_table_csv, ["horizon", "level", "coverage", "n"], rel_rows),
    ]


def _cost_settings(cfg) -> CostSettings:
    from .pipeline import CostSettings

    cost = partial(_setting, cfg, "cost")
    lo, hi, step = cost("differential_min"), cost("differential_max"), cost("differential_step")
    if hi < lo:
        raise InputError(f"config [cost] differential_max: {hi} is below differential_min {lo}, so the sweep is empty")
    # every float key of [cost] is the `CostSettings` field of that name
    floats = {key: cost(key) for key, (kind, _, _) in CONFIG_KEYS["cost"].items() if kind is float}
    # the price and `OperatingEnvelope` rules, checked here to name the key
    positive = ("decision_differential", "free_up_frac", "free_down_frac", "stage2_up_frac", "stage2_down_frac", "energy_per_inflow_day")
    for key in positive:
        _must(floats[key] > 0, "cost", key, "be positive", floats[key])
    capacity, least = floats["max_capacity_frac"], 1.0 + floats["free_up_frac"]
    _must(capacity > least, "cost", "max_capacity_frac", f"exceed 1 + free_up_frac = {least}", capacity)
    return CostSettings(
        **floats,
        differentials=tuple(range(lo, hi + 1, step)),
        n_boot=cost("bootstrap"),
    )


def cmd_cost_eval(args, cfg, seed: int, out: Path) -> list[str]:
    from . import io as iomod
    from .costmodel import FORECAST_TYPES, PriceConfig, evaluate_cases, optimal_adjustments, price_sweep
    from .pipeline import build_cost_cases

    settings = _cost_settings(cfg)
    min_clim_years = _setting(cfg, "verification", "min_climatology_years")
    models, tables, predictions, _, _ = _scored_inputs(args)
    cases = build_cost_cases(models, tables, predictions, settings, min_clim_years=min_clim_years)
    if not cases:
        raise InputError("no cost cases could be built (missing observations or climatology)")
    adjustments = {ftype: optimal_adjustments(cases, ftype) for ftype in FORECAST_TYPES}
    rows, _ = price_sweep(
        cases,
        differentials=settings.differentials,
        peak_price=settings.peak_price,
        n_boot=settings.n_boot,
        seed=seed,
        adjustments=adjustments,
    )
    value_rows = [[r.forecast_type, r.horizon, r.differential, r.water_value, r.se, r.n_cases] for r in rows]
    prices = PriceConfig(peak=settings.peak_price, differential=settings.decision_differential)
    columns = {
        ftype: [c.tolist() for c in (a, costs.stage1, costs.stage2, costs.total)]
        for ftype, (a, costs) in evaluate_cases(cases, prices, adjustments=adjustments).items()
    }
    decision_rows = [
        [date, horizon, ftype, *(col[i] for col in cols)]
        for i, (date, horizon) in enumerate(zip(cases.issue_dates.astype(str).tolist(), cases.horizons.tolist()))
        for ftype, cols in columns.items()
    ]
    decision_header = ["issue_date", "horizon", "type", "A", "stage1", "stage2", "total"]
    return [
        _emit(out, "value_report.csv", iomod.write_table_csv, VALUE_HEADER, value_rows),
        _emit(out, "decisions.csv", iomod.write_table_csv, decision_header, decision_rows),
    ]


def cmd_report(args, cfg, seed: int, out: Path) -> list[str]:
    skill = read_json(args.skill) if args.skill else None
    value_rows = read_table_csv(args.values, VALUE_HEADER, finite=("differential", "water_value")) if args.values else None
    if skill is None and value_rows is None:
        raise InputError("report needs at least one of --skill / --values")
    payload = {}
    if skill is not None:
        if not (isinstance(skill, dict) and isinstance(skill.get("skill"), list)):
            raise InputError(f"{args.skill}: expected a JSON object with a 'skill' list, as `verify` writes")
        payload["skill"] = skill["skill"]
        payload["reliability"] = skill.get("reliability", {})
    if value_rows is not None:
        baseline = {}
        for row in value_rows:
            if row["forecast_type"] == "climatological":
                baseline[(row["horizon"], row["differential"])] = row["water_value"]
        gains = []
        for row in value_rows:
            if row["forecast_type"] == "climatological":
                continue
            base = baseline.get((row["horizon"], row["differential"]))
            if base is None:
                continue
            gains.append(
                {
                    "forecast_type": row["forecast_type"],
                    "horizon": row["horizon"],
                    "differential": row["differential"],
                    "value_gain_over_climatology": row["water_value"] - base,
                }
            )
        payload["value_gains"] = gains
    return [_emit(out, "report.json", write_json, payload)]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inflowcast",
        description="Probabilistic sub-seasonal reservoir inflow forecasting toolkit",
    )
    parser.add_argument("--config", help="INI config file overriding built-in defaults")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--with-telemetry", action="store_true", help="also emit synthetic telemetry")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reconstruct-inflow", help="clean telemetry and rebuild net inflow")
    p.add_argument("--telemetry", required=True)
    p.add_argument("--efficiency", required=True)
    p.add_argument("--net-head", required=True)
    p.add_argument("--storage", required=True)
    p.add_argument("--compensation", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    for name, fn, extra in (
        ("train", cmd_train, ()),
        ("forecast", cmd_forecast, ("models",)),
        ("verify", cmd_verify, ("models", "reanalysis", "nao")),
        ("cost-eval", cmd_cost_eval, ("models",)),
    ):
        p = sub.add_parser(name)
        p.add_argument("--inflow", required=True)
        p.add_argument("--ensemble", required=True)
        if "models" in extra:
            p.add_argument("--models", required=True)
        if "reanalysis" in extra:
            p.add_argument("--reanalysis")
        if "nao" in extra:
            p.add_argument("--nao")
        p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("report", help="merge skill and value outputs into one report")
    p.add_argument("--skill")
    p.add_argument("--values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = _seed(args, cfg)
        write_manifest(args, cfg, seed, args.func(args, cfg, seed, Path(args.out)))
        return 0
    except InputError as exc:
        print(f"inflowcast: input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"inflowcast: numerical failure: {exc}", file=sys.stderr)
        return 3
    except InflowcastError as exc:
        print(f"inflowcast: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
