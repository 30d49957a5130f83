"""Command-line entry point: audit a dataset or run simulation scenarios,
writing reproducible JSON/CSV outputs plus a manifest that re-creates them
byte for byte."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .borrowing import alpha_grid
from .dataset import (DataError, GroupKey, SchemaSpec, load_external,
                      load_internal, subgroup_counts)
from .estimators import METRICS, UndefinedOperand, delta
from .inference import bootstrap_estimates
from .pipeline import (PipelineConfig, pipeline_from_dict, pipeline_to_dict,
                       run_pipeline)
from .simlab import run_scenario, scenario_from_dict, scenario_to_dict

REPORT_SCHEMA_PATH = Path(__file__).with_name("report_schema.json")

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    mode: str
    seed: int
    out: Path
    threads: int = 1
    # audit mode
    internal: Path | None = None
    external: Path | None = None
    schema: Path | None = None
    reference_group: tuple[str, ...] | None = None
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    bootstrap_b: int = 0  # 0 disables intervals
    bootstrap_level: float = 0.95
    # simulate mode
    scenario: dict | None = None
    sweep: dict | None = None


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"config is missing required key '{key}'")
    return raw[key]


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else (base / path)


def _grid_step(value) -> float:
    """The alpha grid step, checked before anything is fitted."""
    try:
        alpha_grid(float(value))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid alpha grid step {value!r}: {err}") from None
    return float(value)


AUDIT_ONLY_OVERRIDES = {"alpha_grid_step": "--alpha-grid-step",
                        "borrow_metric": "--borrow-metric",
                        "bootstrap_b": "--bootstrap-b"}


def load_run_config(path, overrides: dict) -> RunConfig:
    """Parse a run config (or a manifest wrapping one) and apply CLI overrides.
    Seeds are mandatory; nothing falls back to wall-clock time."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if "config_sha256" in raw and "config" in raw:
        raw = raw["config"]  # manifest re-run
    try:
        return _decode_run_config(raw, path.parent, overrides)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid config value: {err}") from None


def _decode_run_config(raw: dict, base: Path, overrides: dict) -> RunConfig:
    mode = _require(raw, "mode")
    if mode not in ("audit", "simulate"):
        raise ConfigError(f"unknown mode: {mode!r}")
    if overrides.get("mode"):
        mode = overrides["mode"]

    seed = overrides.get("seed")
    if seed is None:
        seed = raw.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config 'seed' or --seed)")

    out = overrides.get("out") or raw.get("out")
    if out is None:
        raise ConfigError("an output directory is required (config 'out' or --out)")

    cfg = RunConfig(mode=mode, seed=int(seed), out=_resolve(base, out),
                    threads=int(overrides.get("threads") or raw.get("threads", 1)))

    if mode == "audit":
        cfg.internal = _resolve(base, _require(raw, "internal"))
        cfg.schema = _resolve(base, _require(raw, "schema"))
        if raw.get("external"):
            cfg.external = _resolve(base, raw["external"])
        if raw.get("reference_group") is not None:
            cfg.reference_group = tuple(str(v) for v in raw["reference_group"])
        cfg.pipeline = pipeline_from_dict(raw.get("models", {}))
        borrowing = raw.get("borrowing", {})
        cfg.pipeline.borrow = bool(borrowing.get("enabled", True))
        cfg.pipeline.borrow_metric = borrowing.get("metric", cfg.pipeline.borrow_metric)
        step = overrides.get("alpha_grid_step")
        if step is None:
            step = borrowing.get("grid_step", cfg.pipeline.alpha_grid_step)
        cfg.pipeline.alpha_grid_step = _grid_step(step)
        if overrides.get("borrow_metric"):
            cfg.pipeline.borrow_metric = overrides["borrow_metric"]
        boot = raw.get("bootstrap", {})
        cfg.bootstrap_b = int(boot.get("B", 0))
        cfg.bootstrap_level = float(boot.get("level", 0.95))
        if overrides.get("bootstrap_b") is not None:
            cfg.bootstrap_b = int(overrides["bootstrap_b"])
    else:
        for name, flag in AUDIT_ONLY_OVERRIDES.items():
            if overrides.get(name) is not None:
                raise ConfigError(f"{flag} applies to audit mode only")
        scenario = _require(raw, "scenario")
        if isinstance(scenario, str):
            try:
                with open(_resolve(base, scenario), "r", encoding="utf-8") as f:
                    scenario = json.load(f)
            except FileNotFoundError:
                raise ConfigError(f"scenario file not found: {scenario}") from None
            except json.JSONDecodeError as err:
                raise ConfigError(f"scenario is not valid JSON: {err}") from None
        cfg.sweep = scenario.pop("sweep", None)
        scenario.setdefault("seed", cfg.seed)
        cfg.scenario = scenario
    return cfg


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
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    body["config_sha256"] = hashlib.sha256(
        _canonical_json(resolved_config).encode()).hexdigest()
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        f.write(_canonical_json(body))
        f.write("\n")


def _group_from_label(label: str, schema: SchemaSpec) -> GroupKey:
    key = GroupKey(tuple(label.split("|")))
    if key not in schema.all_groups():
        raise ConfigError(f"group '{label}' is not in the schema")
    return key


def cmd_audit(cfg: RunConfig) -> int:
    schema = SchemaSpec.from_json(cfg.schema)
    internal = load_internal(cfg.internal, schema)
    external = load_external(cfg.external, schema) if cfg.external else None

    result = run_pipeline(internal, external, cfg.pipeline, cfg.seed)
    intervals = {}
    if cfg.bootstrap_b >= 2:
        intervals = bootstrap_estimates(internal, external, cfg.pipeline,
                                        B=cfg.bootstrap_b, seed=cfg.seed,
                                        level=cfg.bootstrap_level,
                                        n_jobs=cfg.threads)

    reference = None
    if cfg.reference_group is not None:
        reference = GroupKey(cfg.reference_group)
        if reference not in schema.all_groups():
            raise ConfigError(f"reference group {cfg.reference_group} not in schema")
    elif len(schema.all_groups()) > 1:
        reference = schema.all_groups()[0]

    estimates = []
    for entry in result.report.entries:
        row = {
            "group": entry.group_label(),
            "metric": entry.metric,
            "method": entry.method,
            "value": entry.value,
            "raw_value": entry.raw_value,
            "defined": entry.defined,
            "clipped": entry.clipped,
        }
        boot = intervals.get((entry.group, entry.metric, entry.method))
        if boot is not None:
            row.update({
                "se": boot.se, "lower": boot.lower, "upper": boot.upper,
                "B": boot.B, "na_count": boot.na_count,
                "truncated_low": boot.truncated_low if boot.lower is not None else None,
                "truncated_high": boot.truncated_high if boot.lower is not None else None,
            })
        estimates.append(row)

    deltas = []
    if reference is not None:
        methods = {e.method for e in result.report.entries}
        for method in sorted(methods):
            for metric in METRICS:
                try:
                    ref_est = result.report.lookup(reference, metric, method)
                except KeyError:
                    continue
                for group in schema.all_groups():
                    if group == reference:
                        continue
                    try:
                        rate = result.report.lookup(group, metric, method)
                        d = delta(rate, ref_est)
                    except (KeyError, UndefinedOperand):
                        continue
                    deltas.append({
                        "metric": d.metric, "method": method,
                        "group": group.label(), "reference": reference.label(),
                        "value": d.value,
                    })

    counts = subgroup_counts(internal)
    counts_json = {}
    for group, cells in counts.items():
        counts_json[group.label()] = {
            f"d{d_}_s{s_}_y{y_}": int(cells[d_, s_, y_])
            for d_ in (0, 1) for s_ in (0, 1) for y_ in (0, 1)
        }

    report = {
        "n_internal": internal.n,
        "n_external": external.n if external is not None else None,
        "alpha": result.alpha,
        "borrow_metric": cfg.pipeline.borrow_metric if result.alpha is not None else None,
        "reference_group": reference.label() if reference is not None else None,
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

    _write_manifest(cfg.out, "audit", _audit_config_dict(cfg), cfg.seed,
                    ["report.json", "report.csv"])
    return EXIT_OK


def _audit_config_dict(cfg: RunConfig) -> dict:
    return {
        "mode": "audit",
        "seed": cfg.seed,
        "out": str(cfg.out),
        "threads": cfg.threads,
        "internal": str(cfg.internal),
        "external": str(cfg.external) if cfg.external else None,
        "schema": str(cfg.schema),
        "reference_group": list(cfg.reference_group) if cfg.reference_group else None,
        "models": pipeline_to_dict(cfg.pipeline),
        "borrowing": {
            "enabled": cfg.pipeline.borrow,
            "metric": cfg.pipeline.borrow_metric,
            "grid_step": cfg.pipeline.alpha_grid_step,
        },
        "bootstrap": {"B": cfg.bootstrap_b, "level": cfg.bootstrap_level},
    }


def _sweep_points(sweep: dict | None):
    if not sweep:
        return [{}]
    import itertools
    names = sorted(sweep)
    points = []
    for combo in itertools.product(*(sweep[name] for name in names)):
        points.append(dict(zip(names, combo)))
    return points


def cmd_simulate(cfg: RunConfig) -> int:
    try:
        base = scenario_from_dict(dict(cfg.scenario))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"invalid scenario: {err}") from None
    _grid_step(base.pipeline.alpha_grid_step)
    points = _sweep_points(cfg.sweep)
    sweep_names = sorted(cfg.sweep) if cfg.sweep else []

    results = []
    for i, point in enumerate(points):
        scenario = replace(base, **point) if point else base
        if len(points) > 1:
            point_seed = int(np.random.SeedSequence(
                entropy=base.seed, spawn_key=(i,)).generate_state(1)[0] % (2**31 - 1))
            scenario = replace(scenario, seed=point_seed)
        results.append((point, run_scenario(scenario, n_jobs=cfg.threads)))

    cfg.out.mkdir(parents=True, exist_ok=True)

    rep_header = sweep_names + ["replication", "group", "metric", "method",
                                "value", "defined", "alpha"]
    rep_rows = [rep_header]
    for point, res in results:
        point_cells = [_f(point[name]) for name in sweep_names]
        for row in res.rows:
            rep_rows.append(point_cells + [
                str(row.replication),
                "overall" if row.group is None else row.group.label(),
                row.metric, row.method, _f(row.value), str(row.defined),
                _f(res.alphas[row.replication]),
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
                entry["group"], entry["metric"], entry["method"],
                str(entry["replications"]), str(entry["na_count"]),
                _f(entry["na_frac"]), _f(entry["mean"]), _f(entry["p2.5"]),
                _f(entry["p97.5"]), _f(entry["oracle"]), _f(mean_alpha),
            ])
    _write_csv(cfg.out / "aggregate.csv", agg_rows)

    resolved = {
        "mode": "simulate",
        "seed": cfg.seed,
        "out": str(cfg.out),
        "threads": cfg.threads,
        "scenario": {**scenario_to_dict(base),
                     **({"sweep": cfg.sweep} if cfg.sweep else {})},
    }
    _write_manifest(cfg.out, "simulate", resolved, cfg.seed,
                    ["replications.csv", "aggregate.csv"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfaudit",
        description="Counterfactual error-rate audits for small protected subgroups",
    )
    parser.add_argument("--config", required=True, help="JSON run config (or a manifest)")
    parser.add_argument("--mode", choices=["audit", "simulate"],
                        help="override the config's mode")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, help="worker processes (default 1)")
    parser.add_argument("--borrow-metric", choices=["brier", "auc"],
                        dest="borrow_metric", help="borrowing selection metric")
    parser.add_argument("--bootstrap-b", type=int, dest="bootstrap_b",
                        help="bootstrap replicate count (0 disables intervals)")
    parser.add_argument("--alpha-grid-step", type=float, dest="alpha_grid_step",
                        help="grid step for the borrowing weight search")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "mode": args.mode, "out": args.out, "seed": args.seed,
        "threads": args.threads, "borrow_metric": args.borrow_metric,
        "bootstrap_b": args.bootstrap_b, "alpha_grid_step": args.alpha_grid_step,
    }
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


if __name__ == "__main__":
    sys.exit(main())
