"""Command-line pipeline: synth, reconstruct-inflow, train, forecast, verify, cost-eval, report.

Every command reads CSV/JSON inputs, writes its outputs plus a ``*_manifest.json``
(resolved config, config hash, seed, package version) into the run directory,
and is byte-for-byte reproducible for a fixed seed and config.  Exit codes:
0 success, 2 invalid input or configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import InflowcastError, InputError, NumericalError
from .horizons import CANONICAL_WINDOWS
from .textio import read_json, read_table_csv, write_json

# Each command imports the modules it computes with: `report` reads and writes
# only through `textio`, so it starts without numpy, and `synth` and
# `reconstruct-inflow` start without scipy.special.
if TYPE_CHECKING:
    from .pipeline import CostSettings, TrainedModels

DEFAULT_CONFIG = {
    "run": {"seed": "0"},
    "horizons": {"names": ",".join(name for name, _, _ in CANONICAL_WINDOWS)},
    "cleaning": {
        "level_min": "150.0",
        "level_max": "250.0",
        "power_min": "0.0",
        "power_max": "12000000.0",
        "max_level_step": "5.0",
        "max_power_step": "10000000.0",
    },
    "emos": {
        "knots": "6",
        "ridge": "1e-6",
        "starts": "3",
        "min_cases": "100",
        "member_wise": "true",
    },
    "verification": {
        "bootstrap": "1000",
        "min_cases": "20",
        "min_climatology_years": "3",
    },
    "cost": {
        "peak_price": "50.0",
        "differential_min": "5",
        "differential_max": "100",
        "differential_step": "5",
        "decision_differential": "30.0",
        "free_up_frac": "0.2",
        "free_down_frac": "0.2",
        "stage2_up_frac": "0.2",
        "stage2_down_frac": "0.5",
        "max_capacity_frac": "2.4",
        "energy_per_inflow_day": "10.0",
        "bootstrap": "1000",
    },
    "synth": {
        "years": "10",
        "start_year": "2009",
        "members": "11",
        "lead_days": "46",
        "skill_half_life": "10.0",
        "seasonal_amplitude": "0.5",
        "drift": "0.12",
        "noise_sd": "0.08",
        "marginal": "gamma",
    },
}


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


def _getfloat(cfg, section, key):
    try:
        return cfg.getfloat(section, key)
    except ValueError:
        raise InputError(f"config [{section}] {key}: not a number: {cfg.get(section, key)!r}") from None


def _getint(cfg, section, key):
    try:
        return cfg.getint(section, key)
    except ValueError:
        raise InputError(f"config [{section}] {key}: not an integer: {cfg.get(section, key)!r}") from None


def _getboolean(cfg, section, key):
    try:
        return cfg.getboolean(section, key)
    except ValueError:
        raise InputError(f"config [{section}] {key}: not a boolean: {cfg.get(section, key)!r}") from None


def _at_least(cfg, section, key, least):
    value = _getint(cfg, section, key)
    if value < least:
        raise InputError(f"config [{section}] {key}: must be at least {least}, got {value}")
    return value


def _horizons(cfg):
    from .data import horizon_by_name

    names = [n.strip() for n in cfg.get("horizons", "names").split(",") if n.strip()]
    return tuple(horizon_by_name(n) for n in names)


def write_manifest(out_dir: Path, command: str, cfg, seed: int, inputs: dict, outputs: list[str]):
    resolved, digest = config_fingerprint(cfg)
    write_json(
        out_dir / f"{command.replace('-', '_')}_manifest.json",
        {
            "command": command,
            "package_version": __version__,
            "seed": seed,
            "config": resolved,
            "config_sha256": digest,
            "inputs": {k: str(v) for k, v in inputs.items()},
            "outputs": sorted(outputs),
        },
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(args, cfg) -> int:
    return args.seed if args.seed is not None else _getint(cfg, "run", "seed")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg) -> int:
    from . import io as iomod
    from .synth import ScenarioConfig, generate_scenario, simulate_telemetry

    out = _out_dir(args)
    seed = _seed(args, cfg)
    half_life_raw = cfg.get("synth", "skill_half_life")
    scenario_cfg = ScenarioConfig(
        n_years=_getint(cfg, "synth", "years"),
        start_year=_getint(cfg, "synth", "start_year"),
        n_members=_getint(cfg, "synth", "members"),
        lead_days=_getint(cfg, "synth", "lead_days"),
        seasonal_amplitude=_getfloat(cfg, "synth", "seasonal_amplitude"),
        drift=_getfloat(cfg, "synth", "drift"),
        noise_sd=_getfloat(cfg, "synth", "noise_sd"),
        skill_half_life=None if half_life_raw.lower() in ("none", "inf") else _getfloat(cfg, "synth", "skill_half_life"),
        marginal=cfg.get("synth", "marginal"),
        seed=seed,
    )
    scenario = generate_scenario(scenario_cfg)
    outputs = []

    def emit(name, writer, *payload):
        path = out / name
        writer(path, *payload)
        outputs.append(name)

    emit("inflow.csv", iomod.write_inflow_csv, scenario.inflow, out / "inflow_meta.json")
    outputs.append("inflow_meta.json")
    emit("reanalysis.csv", iomod.write_reanalysis_csv, scenario.precip)
    emit("ensemble.csv", iomod.write_ensemble_csv, scenario.forecasts)
    emit("nao.csv", iomod.write_nao_csv, scenario.nao)

    if args.with_telemetry:
        sim = simulate_telemetry(seed=seed)
        emit("telemetry.csv", iomod.write_telemetry_csv, sim.telemetry)
        emit("efficiency.csv", iomod.write_grid_table_csv, sim.curves.efficiency)
        emit("net_head.csv", iomod.write_grid_table_csv, sim.curves.net_head)
        emit("storage.csv", iomod.write_storage_csv, sim.curves.storage)
        emit("compensation.csv", iomod.write_compensation_csv, sim.compensation)
        iomod.write_table_csv(
            out / "true_inflow.csv",
            ["timestamp", "inflow_m3s"],
            [[f"{t}Z", v] for t, v in zip(sim.telemetry.timestamps, sim.true_inflow)],
        )
        outputs.append("true_inflow.csv")

    write_manifest(out, "synth", cfg, seed, {}, outputs)
    return 0


def cmd_reconstruct(args, cfg) -> int:
    from . import io as iomod
    from .telemetry import CleaningLimits, PlantCurves, aggregate_and_normalize, clean_telemetry, reconstruct_net_inflow

    out = _out_dir(args)
    telemetry = iomod.read_telemetry_csv(args.telemetry)
    curves = PlantCurves(
        efficiency=iomod.read_grid_table_csv(args.efficiency),
        net_head=iomod.read_grid_table_csv(args.net_head),
        storage=iomod.read_storage_csv(args.storage),
    )
    compensation = iomod.read_compensation_csv(args.compensation)
    limits = CleaningLimits(
        level_bounds=(_getfloat(cfg, "cleaning", "level_min"), _getfloat(cfg, "cleaning", "level_max")),
        power_bounds=(_getfloat(cfg, "cleaning", "power_min"), _getfloat(cfg, "cleaning", "power_max")),
        max_level_step=_getfloat(cfg, "cleaning", "max_level_step"),
        max_power_step=_getfloat(cfg, "cleaning", "max_power_step"),
    )
    cleaned, cleaning_report = clean_telemetry(telemetry, limits)
    reconstruction = reconstruct_net_inflow(cleaned, curves, compensation)
    series = aggregate_and_normalize(
        reconstruction.timestamps, reconstruction.values, window=args.window
    )
    report = {"cleaning": cleaning_report.to_dict(), "reconstruction": reconstruction.to_report()}
    iomod.write_inflow_csv(out / "inflow.csv", series, out / "inflow_meta.json", report)
    write_manifest(
        out,
        "reconstruct-inflow",
        cfg,
        _seed(args, cfg),
        {
            "telemetry": args.telemetry,
            "efficiency": args.efficiency,
            "net_head": args.net_head,
            "storage": args.storage,
            "compensation": args.compensation,
        },
        ["inflow.csv", "inflow_meta.json"],
    )
    return 0


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

    inflow = iomod.read_inflow_csv(args.inflow, Path(args.inflow).with_name("inflow_meta.json"))
    issues = iomod.read_ensemble_csv(args.ensemble)
    reanalysis = iomod.read_reanalysis_csv(args.reanalysis) if getattr(args, "reanalysis", None) else None
    nao = iomod.read_nao_csv(args.nao) if getattr(args, "nao", None) else None
    return inflow, issues, reanalysis, nao


def cmd_train(args, cfg) -> int:
    from . import io as iomod
    from .pipeline import train_models

    out = _out_dir(args)
    seed = _seed(args, cfg)
    inflow, issues, _, _ = _load_dataset(args)
    horizons = _horizons(cfg)
    models = train_models(
        issues,
        inflow,
        horizons,
        member_wise=_getboolean(cfg, "emos", "member_wise"),
        n_knots=_getint(cfg, "emos", "knots"),
        ridge=_getfloat(cfg, "emos", "ridge"),
        n_starts=_getint(cfg, "emos", "starts"),
        min_cases=_getint(cfg, "emos", "min_cases"),
        seed=seed,
    )
    iomod.write_json(out / "models.json", models.to_dict())
    write_manifest(
        out, "train", cfg, seed, {"inflow": args.inflow, "ensemble": args.ensemble}, ["models.json"]
    )
    return 0


def cmd_forecast(args, cfg) -> int:
    from . import io as iomod
    from .pipeline import FORECAST_HEADER, build_case_tables, forecast_rows, predict_params

    out = _out_dir(args)
    models = _load_models(args.models)
    inflow, issues, _, _ = _load_dataset(args)
    tables = build_case_tables(issues, inflow, models.horizons)
    predictions = predict_params(models, tables)
    rows = forecast_rows(models, tables, predictions)
    iomod.write_table_csv(out / "forecasts.csv", FORECAST_HEADER, rows)
    write_manifest(
        out,
        "forecast",
        cfg,
        _seed(args, cfg),
        {"models": args.models, "inflow": args.inflow, "ensemble": args.ensemble},
        ["forecasts.csv"],
    )
    return 0


def cmd_verify(args, cfg) -> int:
    from . import io as iomod
    from .pipeline import build_case_tables, predict_params, verify_skill

    out = _out_dir(args)
    seed = _seed(args, cfg)
    n_boot = _at_least(cfg, "verification", "bootstrap", 2)
    models = _load_models(args.models)
    inflow, issues, reanalysis, nao = _load_dataset(args)
    tables = build_case_tables(issues, inflow, models.horizons, reanalysis=reanalysis)
    predictions = predict_params(models, tables)
    report = verify_skill(
        models,
        tables,
        predictions,
        nao=nao,
        reanalysis=reanalysis,
        n_boot=n_boot,
        seed=seed,
        min_cases=_at_least(cfg, "verification", "min_cases", 1),
        min_clim_years=_getint(cfg, "verification", "min_climatology_years"),
    )
    iomod.write_json(out / "skill.json", report.to_dict())
    skill_rows = [
        [var, r.horizon, r.stratum, r.fcrpss, r.se, r.spread, r.skill_class, r.n_cases]
        for var, r in report.skill
    ]
    iomod.write_table_csv(
        out / "skill_by_horizon.csv",
        ["variable", "horizon", "stratum", "fcrpss", "se", "spread", "skill_class", "n"],
        skill_rows,
    )
    rel_rows = []
    for h, d in report.reliability.items():
        for level, cov in zip(d.levels, d.coverage):
            rel_rows.append([h, level, cov, d.n_cases])
    iomod.write_table_csv(out / "reliability.csv", ["horizon", "level", "coverage", "n"], rel_rows)
    write_manifest(
        out,
        "verify",
        cfg,
        seed,
        {
            "models": args.models,
            "inflow": args.inflow,
            "ensemble": args.ensemble,
            **{k: v for k, v in (("reanalysis", args.reanalysis), ("nao", args.nao)) if v},
        },
        ["skill.json", "skill_by_horizon.csv", "reliability.csv"],
    )
    return 0


def _cost_settings(cfg, seed) -> CostSettings:
    from .pipeline import CostSettings

    lo, hi = _at_least(cfg, "cost", "differential_min", 1), _getint(cfg, "cost", "differential_max")
    step, n_boot = _at_least(cfg, "cost", "differential_step", 1), _at_least(cfg, "cost", "bootstrap", 2)
    if hi < lo:
        raise InputError(f"config [cost] differential_max: {hi} is below differential_min {lo}, so the sweep is empty")
    decision_differential = _getfloat(cfg, "cost", "decision_differential")
    if not decision_differential > 0:
        raise InputError(f"config [cost] decision_differential: must be positive, got {decision_differential}")
    return CostSettings(
        peak_price=_getfloat(cfg, "cost", "peak_price"),
        differentials=tuple(range(lo, hi + 1, step)),
        decision_differential=decision_differential,
        free_up_frac=_getfloat(cfg, "cost", "free_up_frac"),
        free_down_frac=_getfloat(cfg, "cost", "free_down_frac"),
        stage2_up_frac=_getfloat(cfg, "cost", "stage2_up_frac"),
        stage2_down_frac=_getfloat(cfg, "cost", "stage2_down_frac"),
        max_capacity_frac=_getfloat(cfg, "cost", "max_capacity_frac"),
        energy_per_inflow_day=_getfloat(cfg, "cost", "energy_per_inflow_day"),
        n_boot=n_boot,
        seed=seed,
    )


def cmd_cost_eval(args, cfg) -> int:
    from . import io as iomod
    from .costmodel import FORECAST_TYPES, PriceConfig, evaluate_cases, optimal_adjustments, price_sweep
    from .pipeline import build_case_tables, build_cost_cases, predict_params

    out = _out_dir(args)
    seed = _seed(args, cfg)
    settings = _cost_settings(cfg, seed)
    models = _load_models(args.models)
    inflow, issues, _, _ = _load_dataset(args)
    tables = build_case_tables(issues, inflow, models.horizons)
    predictions = predict_params(models, tables)
    cases = build_cost_cases(
        models,
        tables,
        predictions,
        settings,
        min_clim_years=_getint(cfg, "verification", "min_climatology_years"),
    )
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
    iomod.write_table_csv(
        out / "value_report.csv",
        ["forecast_type", "horizon", "differential", "water_value", "se", "n"],
        [[r.forecast_type, r.horizon, r.differential, r.water_value, r.se, r.n_cases] for r in rows],
    )
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
    iomod.write_table_csv(
        out / "decisions.csv",
        ["issue_date", "horizon", "type", "A", "stage1", "stage2", "total"],
        decision_rows,
    )
    write_manifest(
        out,
        "cost-eval",
        cfg,
        seed,
        {"models": args.models, "inflow": args.inflow, "ensemble": args.ensemble},
        ["value_report.csv", "decisions.csv"],
    )
    return 0


def cmd_report(args, cfg) -> int:
    out = _out_dir(args)
    skill = read_json(args.skill) if args.skill else None
    value_rows = (
        read_table_csv(
            args.values,
            ["forecast_type", "horizon", "differential", "water_value", "se", "n"],
            finite=("differential", "water_value"),
        )
        if args.values
        else None
    )
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
    write_json(out / "report.json", payload)
    write_manifest(
        out,
        "report",
        cfg,
        _seed(args, cfg),
        {k: v for k, v in (("skill", args.skill), ("values", args.values)) if v},
        ["report.json"],
    )
    return 0


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
    p.add_argument("--window", choices=["daily", "weekly"], default="daily")
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
        return args.func(args, cfg)
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
