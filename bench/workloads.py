"""Benchmark inputs: one run config plus its data files per workload.

Every file is derived from the workload seed alone, so the same seed always
gives byte-identical inputs. The program under test only ever sees the
files written here.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("audit-boot", "audit-wide", "simulate-mlp")

# Full sizes are the benchmark; smoke sizes only exercise the harness. Model
# knobs the package defaults (epochs, learning rate) are left unset.
SIZES = {
    "full": {
        "audit-boot": {"n_int": 600, "n_ext": 1200, "B": 20, "grid": 0.005},
        "audit-wide": {"n_int": 3000, "n_ext": 1000, "grid": 0.008},
        "simulate-mlp": {"n_int": 400, "n_ext": 800, "reps": 2, "grid": 0.01,
                         "hidden": 100, "n_validation": 50000,
                         "b": [-1.0, 1.0]},
    },
    "smoke": {
        "audit-boot": {"n_int": 200, "n_ext": 400, "B": 3, "grid": 0.05},
        "audit-wide": {"n_int": 1500, "n_ext": 1500, "grid": 0.05},
        "simulate-mlp": {"n_int": 150, "n_ext": 200, "reps": 2, "grid": 0.1,
                         "hidden": 5, "n_validation": 2000,
                         "b": [0.0, 1.0]},
    },
}

# Bagged trees of the simulation lab's risk model, in audit-boot's data and
# in simulate-mlp's scenario.
RISK_TREES = 25

# Nuisance models of both audits; membership is the softmax-linear default.
AUDIT_MODELS = {
    "pi": {"kind": "logistic-IRLS", "l2": 0.01},
    "mu": {"kind": "logistic-IRLS", "l2": 0.01},
    "crossfit_k": 1,
}

# The 24-group schema of audit-wide: 2 x 3 x 4 intersectional levels.
WIDE_LEVELS = (("f", "m"), ("young", "mid", "old"), ("n", "e", "s", "w"))
WIDE_SHARES = ((0.6, 0.4), (0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1))
WIDE_P = 10
# Fixed structure of the wide generator; the workload seed only draws rows.
WIDE_STRUCTURE_SEED = 20231030


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_audit_csvs(out: Path, char_names, group_levels, group_codes, d, y, s,
                      x, ext_codes, ext_x) -> None:
    covs = [f"x{j + 1}" for j in range(x.shape[1])]
    _write_csv(out / "internal.csv", list(char_names) + ["d", "y", "s"] + covs,
               (list(group_levels[g]) + [str(int(a)), str(int(b)), str(int(c))]
                + [repr(float(v)) for v in row]
                for g, a, b, c, row in zip(group_codes, d, y, s, x)))
    _write_csv(out / "external.csv", list(char_names) + covs,
               (list(group_levels[g]) + [repr(float(v)) for v in row]
                for g, row in zip(ext_codes, ext_x)))


def _schema(char_names, level_sets, p) -> dict:
    covs = [f"x{j + 1}" for j in range(p)]
    return {
        "characteristics": [{"name": c, "levels": list(ls)}
                            for c, ls in zip(char_names, level_sets)],
        "treatment": "d", "outcome": "y", "prediction": "s",
        "covariates": covs, "external_covariates": covs,
    }


def _boot_data(out: Path, seed: int, size: dict) -> dict:
    """Four-group audit data drawn by the simulation lab's generators."""
    # imported here: the harness checks that src/ holds cfaudit before this runs
    from cfaudit.simlab import (SIM_GROUPS, ScenarioConfig, generate_population,
                                train_risk_model)

    cfg = ScenarioConfig(n_internal=size["n_int"], n_external=size["n_ext"],
                         n_trees=RISK_TREES, replications=1, seed=seed)
    ch = np.random.SeedSequence(seed).spawn(4)
    train = generate_population(cfg, "train", ch[0])
    model = train_risk_model(train.x, train.y, n_trees=cfg.n_trees,
                             max_depth=cfg.max_depth,
                             positive_rate=cfg.positive_rate, seed=ch[1])
    internal = generate_population(cfg, "internal", ch[2], risk_model=model)
    external = generate_population(cfg, "external", ch[3])
    levels = [g.levels for g in SIM_GROUPS]
    _write_audit_csvs(out, ("a1", "a2"), levels, internal.group_codes, internal.d,
                      internal.y, internal.s, internal.x, external.group_codes,
                      external.x)
    return _schema(("a1", "a2"), (("0", "1"), ("0", "1")), internal.x.shape[1])


def _wide_groups():
    levels = list(itertools.product(*WIDE_LEVELS))
    shares = np.array([np.prod(s) for s in itertools.product(*WIDE_SHARES)])
    return levels, shares


def _wide_rows(rng, n, slopes, shares):
    x = rng.standard_normal((n, WIDE_P))
    logits = np.log(shares) + x @ slopes
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    codes = np.sum(rng.random(n)[:, None] > np.cumsum(probs, axis=1), axis=1)
    return x, np.minimum(codes, len(shares) - 1)


def _wide_data(out: Path, seed: int, size: dict) -> dict:
    """24 intersectional groups; the rarest holds about 0.9% of rows."""
    levels, shares = _wide_groups()
    structure = np.random.default_rng(WIDE_STRUCTURE_SEED)
    slopes = 0.25 * structure.standard_normal((WIDE_P, len(levels)))
    group_effect = 0.4 * structure.standard_normal(len(levels))
    beta_y = np.array([1.2, 0.9, -0.7, 0.5, 0, 0, 0, 0, 0, 0], dtype=np.float64)

    rng = np.random.default_rng(seed)
    x, codes = _wide_rows(rng, size["n_int"], slopes, shares)
    eta = -1.2 + x @ beta_y + group_effect[codes]
    y0 = (rng.random(len(codes)) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int8)
    y1 = (rng.random(len(codes)) < 1.0 / (1.0 + np.exp(-(eta - 0.8)))).astype(np.int8)
    score = x @ beta_y + 0.7 * rng.standard_normal(len(codes))
    s = (score >= np.quantile(score, 0.8)).astype(np.int8)
    d = (rng.random(len(codes)) < 1.0 / (1.0 + np.exp(-(-1.1 + 0.3 * x[:, 0] + 1.4 * s)))
         ).astype(np.int8)
    y = np.where(d == 1, y1, y0)
    ext_x, ext_codes = _wide_rows(rng, size["n_ext"], slopes, shares)
    names = ("sex", "age", "region")
    _write_audit_csvs(out, names, levels, codes, d, y, s, x, ext_codes, ext_x)
    return _schema(names, WIDE_LEVELS, WIDE_P)


def _audit_config(size: dict, metric: str, B: int) -> dict:
    membership = {"kind": "softmax-linear"}
    return {
        "mode": "audit",
        "internal": "internal.csv",
        "external": "external.csv",
        "schema": "schema.json",
        "models": {**AUDIT_MODELS, "h_internal": membership, "h_external": membership},
        "borrowing": {"enabled": True, "metric": metric, "grid_step": size["grid"]},
        "bootstrap": {"B": B, "level": 0.95},
    }


def _simulate_config(size: dict, seed: int) -> dict:
    mlp = {"kind": "mlp-1hidden", "hidden": size["hidden"], "decay": 1.0}
    return {
        "mode": "simulate",
        "scenario": {
            "n_internal": size["n_int"], "n_external": size["n_ext"],
            "n_validation": size["n_validation"], "n_trees": RISK_TREES,
            "replications": size["reps"], "seed": seed,
            "pipeline": {
                "pi": {"l2": 0.01}, "mu": {"l2": 0.01},
                "h_internal": mlp, "h_external": mlp, "crossfit_k": 1,
                "borrow_metric": "brier", "alpha_grid_step": size["grid"],
            },
            "sweep": {"b": size["b"]},
        },
    }


def expected_units(workload: str, smoke: bool = False) -> int:
    """Work units one CLI call completes: bootstrap replicates, audits, or
    simulation replications."""
    size = SIZES["smoke" if smoke else "full"][workload]
    if workload == "audit-boot":
        return size["B"]
    if workload == "simulate-mlp":
        return size["reps"] * len(size["b"])
    return 1


def write_inputs(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write the run config and data files of one workload into ``out``.

    Returns {"config": path of the run config, "digests": sha256 per file}.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    size = SIZES["smoke" if smoke else "full"][workload]
    out.mkdir(parents=True, exist_ok=True)
    if workload == "simulate-mlp":
        config = _simulate_config(size, seed)
    else:
        if workload == "audit-boot":
            schema = _boot_data(out, seed, size)
            config = _audit_config(size, "brier", size["B"])
        else:
            schema = _wide_data(out, seed, size)
            config = _audit_config(size, "auc", 0)
        with open(out / "schema.json", "w", encoding="utf-8") as f:
            json.dump(schema, f, indent=2)
    config.update({"seed": seed, "threads": 1, "out": "out"})
    with open(out / "run.json", "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.is_file()}
    return {"config": out / "run.json", "digests": digests}
