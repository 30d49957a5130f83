"""Command-line entry point: audit a dataset or run simulation scenarios,
writing reproducible JSON/CSV outputs plus a manifest that re-creates them
byte for byte."""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .borrowing import BORROW_METRICS, grid_intervals
from .config import (ConfigError, check_at_least, check_choice, check_level, decode,
                     encode, read_json)
from .dataset import (DataError, SchemaSpec, load_external, load_internal,
                      subgroup_counts)
from .estimators import METRICS, group_label
from .models import ModelError, NuisanceModels
from .pipeline import PipelineConfig, run_pipeline

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2


@dataclass(kw_only=True)
class RunConfig:
    """The keys of every run config. Seeds are mandatory; nothing falls back
    to wall-clock time."""

    mode: str
    seed: int
    out: Path
    threads: int = 1

    def __post_init__(self):
        check_at_least("seed", self.seed, 0)
        check_at_least("threads", self.threads, 1)


@dataclass
class Borrowing:
    """An audit config's "borrowing" block."""

    enabled: bool = True
    metric: str = "brier"
    grid_step: float = 0.001

    def __post_init__(self):
        check_choice("metric", self.metric, BORROW_METRICS)
        grid_intervals(self.grid_step)


@dataclass
class Bootstrap:
    B: int = 0  # 0 disables intervals
    level: float = 0.95

    def __post_init__(self):
        if not (self.B == 0 or self.B >= 2):  # NaN too
            raise ValueError(f"B must be 0 (no intervals) or at least 2; got {self.B}")
        check_level(self.level)


@dataclass(kw_only=True)
class AuditConfig(RunConfig):
    internal: Path
    schema: Path
    external: Path | None = None
    reference_group: tuple[str, ...] | None = None
    models: NuisanceModels = field(default_factory=NuisanceModels)
    borrowing: Borrowing = field(default_factory=Borrowing)
    bootstrap: Bootstrap = field(default_factory=Bootstrap)

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(**vars(self.models), borrow=self.borrowing.enabled,
                              borrow_metric=self.borrowing.metric,
                              alpha_grid_step=self.borrowing.grid_step)


@dataclass(kw_only=True)
class SimulateConfig(RunConfig):
    scenario: dict  # decoded with its sweep block by _scenario_points


def _resolve(base: Path, path: Path) -> Path:
    return (base / path).absolute()  # base / path is path when path is absolute


def load_run_config(path, overrides: dict) -> AuditConfig | SimulateConfig:
    """Decode a run config, or the manifest wrapping one, with the CLI
    overrides (out, seed, threads) written in. A seed override is also the
    seed of a simulate run's scenario. Relative paths in the file resolve
    against its directory, and a relative out override against the working
    directory; all of them are made absolute, so a manifest re-runs from
    anywhere and writes where the run it records wrote."""
    path = Path(path)
    try:
        raw = read_json(path, "config")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    if isinstance(raw, dict) and "config_sha256" in raw and "config" in raw:
        raw = raw["config"]  # manifest re-run
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected an object, got {raw!r}")
    raw = {**raw, **{key: value for key, value in overrides.items() if value is not None}}
    mode = raw.get("mode")
    if mode not in ("audit", "simulate"):
        raise ConfigError(f"mode must be 'audit' or 'simulate'; got {mode!r}")
    if (mode == "simulate" and overrides.get("seed") is not None
            and isinstance(raw.get("scenario"), dict)):
        raw["scenario"] = {**raw["scenario"], "seed": overrides["seed"]}

    base = path.parent
    if mode == "audit":
        cfg = decode(AuditConfig, raw)
        cfg.internal = _resolve(base, cfg.internal)
        cfg.schema = _resolve(base, cfg.schema)
        if cfg.external is not None:
            cfg.external = _resolve(base, cfg.external)
    else:
        cfg = decode(SimulateConfig, raw)
    cfg.out = _resolve(base if overrides.get("out") is None else Path(), cfg.out)
    return cfg


def _scenario_points(scenario: dict, seed: int) -> tuple[dict, list]:
    """Decode a scenario object and its optional sweep block.

    Returns the scenario's resolved JSON form, for the manifest, and one
    (sweep values, ScenarioConfig) pair per sweep point. Every point is
    decoded from the scenario with its sweep values written in, before any
    of them runs. Coefficients left unset are the defaults for each point's
    p_informative and interactions, and stay unset in the resolved form. The
    scenario seed defaults to the run seed, and every point runs on it unless
    the sweep sets the seed.
    """
    raw = {"seed": seed, **scenario}
    sweep = raw.pop("sweep", None) or {}
    if not isinstance(sweep, dict):
        raise ConfigError(f"scenario.sweep: expected an object, got {sweep!r}")
    for name, values in sweep.items():
        if not (isinstance(values, list) and values
                and all(isinstance(v, (int, float)) for v in values)):
            raise ConfigError(f"scenario.sweep.{name}: expected a non-empty list of "
                              f"numbers or booleans, got {values!r}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:  # its points' rows could not be told apart
            raise ConfigError(f"scenario.sweep.{name}: {repeated[0]!r} appears more "
                              f"than once in {values!r}")
    from .simlab import ScenarioConfig  # here so audits skip the simulation lab

    base = decode(ScenarioConfig, raw, "scenario")
    resolved = encode(base)
    if raw.get("coefficients") is None:
        del resolved["coefficients"]
    if sweep:
        resolved["sweep"] = sweep

    names = sorted(sweep)
    points = []
    for combo in itertools.product(*(sweep[name] for name in names)):
        point = dict(zip(names, combo))
        config = decode(ScenarioConfig, {**raw, **point}, "scenario.sweep") if point else base
        points.append((point, config))
    return resolved, points


def _f(value) -> str:
    """Float cell formatting: repr round-trips exactly and is stable."""
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "NA"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _write_manifest(out: Path, mode: str, resolved_config: dict, seed: int,
                    outputs: list[str]):
    body = {
        "mode": mode,
        "seed": seed,
        "config": resolved_config,
        "outputs": sorted(outputs),
        "versions": {
            "cfaudit": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    body["config_sha256"] = hashlib.sha256(
        _canonical_json(resolved_config).encode()).hexdigest()
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        f.write(_canonical_json(body))
        f.write("\n")


def cmd_audit(cfg: AuditConfig) -> int:
    try:
        schema = SchemaSpec.from_json(cfg.schema)
    except (ConfigError, ValueError) as err:  # ValueError: a path open() refuses
        raise ConfigError(f"schema {cfg.schema}: {err}") from None
    labels = schema.group_labels
    reference = 0 if len(labels) > 1 else None  # a group code
    if cfg.reference_group is not None:
        reference = schema.level_codes.get(cfg.reference_group)
        if reference is None:
            raise ConfigError(f"reference_group {list(cfg.reference_group)} is not a "
                              "group of the schema")

    internal = load_internal(cfg.internal, schema)
    external = load_external(cfg.external, schema) if cfg.external else None
    pipeline = cfg.pipeline()
    result = run_pipeline(internal, external, pipeline, cfg.seed)
    intervals = {}
    if cfg.bootstrap.B:
        from .inference import bootstrap_estimates  # here so point-only audits skip it

        intervals = bootstrap_estimates(internal, external, pipeline,
                                        B=cfg.bootstrap.B, seed=cfg.seed,
                                        level=cfg.bootstrap.level, n_jobs=cfg.threads)

    estimates = result.report.to_json_rows(labels)
    for row, entry in zip(estimates, result.report.entries):
        boot = intervals.get((entry.group, entry.metric, entry.method))
        if boot is not None:
            row.update({
                "se": boot.se, "lower": boot.lower, "upper": boot.upper,
                "B": boot.B, "na_count": boot.na_count,
                "truncated_low": boot.truncated_low, "truncated_high": boot.truncated_high,
            })

    # each defined group's difference from the reference, methods in name order
    deltas = []
    if reference is not None:
        rate = dict(zip(result.report.keys(), result.report.values()))
        for method in sorted(pipeline.reported_methods(external is not None)):
            for metric in METRICS:
                for code, label in enumerate(labels):
                    value = rate[code, metric, method] - rate[reference, metric, method]
                    if code != reference and not np.isnan(value):
                        deltas.append({"metric": f"delta_{metric}", "method": method,
                                       "group": label, "reference": labels[reference],
                                       "value": float(value)})

    counts_json = {}
    for label, cells in zip(labels, subgroup_counts(internal)):
        counts_json[label] = {
            f"d{d_}_s{s_}_y{y_}": int(cells[d_, s_, y_])
            for d_ in (0, 1) for s_ in (0, 1) for y_ in (0, 1)
        }

    report = {
        "n_internal": internal.n,
        "n_external": external.n if external is not None else None,
        "alpha": result.alpha,
        "borrow_metric": pipeline.borrow_metric if result.alpha is not None else None,
        "reference_group": labels[reference] if reference is not None else None,
        "estimates": estimates,
        "deltas": deltas,
        "subgroup_counts": counts_json,
    }

    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "report.json", "w", encoding="utf-8") as f:
        f.write(_canonical_json(report))
        f.write("\n")

    header = ["group", "metric", "method", "value", "raw_value", "defined",
              "clipped", "se", "lower", "upper"]
    rows = [header]
    for row in estimates:
        rows.append([row["group"], row["metric"], row["method"], _f(row["value"]),
                     _f(row["raw_value"]), str(row["defined"]), str(row["clipped"]),
                     _f(row.get("se")), _f(row.get("lower")), _f(row.get("upper"))])
    _write_csv(cfg.out / "report.csv", rows)

    _write_manifest(cfg.out, "audit", encode(cfg), cfg.seed, ["report.json", "report.csv"])
    return EXIT_OK


def cmd_simulate(cfg: SimulateConfig) -> int:
    from .simlab import run_sweep, sim_schema  # here so audits skip the simulation lab

    scenario, points = _scenario_points(cfg.scenario, cfg.seed)
    sweep_points, configs = zip(*points)
    sweep_names = sorted(sweep_points[0])
    results = list(zip(sweep_points, run_sweep(list(configs), cfg.threads)))
    labels = sim_schema(configs[0]).group_labels

    cfg.out.mkdir(parents=True, exist_ok=True)

    rep_header = sweep_names + ["replication", "group", "metric", "method",
                                "value", "defined", "alpha"]
    rep_rows = [rep_header]
    for point, res in results:
        point_cells = [_f(point[name]) for name in sweep_names]
        for rep, (values, alpha) in enumerate(zip(res.values, res.alphas)):
            for (group, metric, method), value in zip(res.cells, values):
                rep_rows.append(point_cells + [
                    str(rep), group_label(group, labels), metric, method,
                    _f(value), str(not np.isnan(value)), _f(alpha),
                ])
    _write_csv(cfg.out / "replications.csv", rep_rows)

    agg_header = sweep_names + ["group", "metric", "method", "replications",
                                "na_count", "na_frac", "mean", "p2.5", "p97.5",
                                "oracle", "mean_alpha"]
    agg_rows = [agg_header]
    for point, res in results:
        point_cells = [_f(point[name]) for name in sweep_names]
        mean_alpha = res.mean_alpha()
        for entry in res.aggregate():
            agg_rows.append(point_cells + [
                group_label(entry["group"], labels), entry["metric"], entry["method"],
                str(entry["replications"]), str(entry["na_count"]),
                _f(entry["na_frac"]), _f(entry["mean"]), _f(entry["p2.5"]),
                _f(entry["p97.5"]), _f(entry["oracle"]), _f(mean_alpha),
            ])
    _write_csv(cfg.out / "aggregate.csv", agg_rows)

    resolved = {**encode(cfg), "scenario": scenario}
    _write_manifest(cfg.out, "simulate", resolved, cfg.seed,
                    ["replications.csv", "aggregate.csv"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfaudit",
        description="Counterfactual error-rate audits for small protected subgroups",
    )
    parser.add_argument("--config", required=True, help="JSON run config (or a manifest)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed (and a scenario's)")
    parser.add_argument("--threads", type=int, help="worker processes (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "threads": args.threads}
    try:
        cfg = load_run_config(args.config, overrides)
        if cfg.mode == "audit":
            return cmd_audit(cfg)
        return cmd_simulate(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as err:
        print(f"model error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
