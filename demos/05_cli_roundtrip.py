"""The command-line workflow end to end, in a temporary directory.
==================================================================

An audit run needs three files: the internal CSV, a JSON schema naming
the characteristic/treatment/outcome/prediction/covariate columns, and a
run config. The CLI writes report.json + report.csv plus a manifest that
reproduces the outputs byte for byte (same seed, any thread count).

This script fabricates the inputs, invokes the CLI entry point twice,
and diffs the outputs; the temporary directory is removed at the end.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from cfaudit.cli import main
from cfaudit.dataset import write_external, write_internal
from cfaudit.simlab import (ScenarioConfig, generate_population, sim_schema,
                            to_audit_dataset, to_external_dataset,
                            train_risk_model)

# --- the run config; its paths resolve against the config file's directory
run_config = {
    "mode": "audit",
    "seed": 17,
    "out": "out",
    "internal": "internal.csv",
    "external": "external.csv",
    "schema": "schema.json",
    "reference_group": ["0", "0"],
    "models": {
        "pi": {"kind": "logistic-IRLS", "l2": 0.01},
        "mu": {"kind": "logistic-IRLS", "l2": 0.01},
        "h_internal": {"kind": "softmax-linear", "epochs": 200, "lr": 1.0},
        "h_external": {"kind": "softmax-linear", "epochs": 200, "lr": 1.0},
        "crossfit_k": 1,
    },
    "borrowing": {"enabled": True, "metric": "brier", "grid_step": 0.01},
    "bootstrap": {"B": 50, "level": 0.95},
}

with tempfile.TemporaryDirectory(prefix="cfaudit_demo_") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}\n")

    # --- fabricate an audit dataset and its schema file
    cfg = ScenarioConfig(n_internal=250, n_external=800, replications=1, seed=404)
    children = np.random.SeedSequence(cfg.seed).spawn(4)
    train = generate_population(cfg, "train", children[0])
    risk_model = train_risk_model(train.x, train.y, seed=children[1])
    schema = sim_schema(cfg)
    write_internal(to_audit_dataset(
        generate_population(cfg, "internal", children[2], risk_model=risk_model),
        schema), workdir / "internal.csv")
    write_external(to_external_dataset(
        generate_population(cfg, "external", children[3]), schema),
        workdir / "external.csv")
    with open(workdir / "schema.json", "w") as f:
        json.dump(schema.to_dict(), f, indent=2)

    with open(workdir / "run.json", "w") as f:
        json.dump(run_config, f, indent=2)

    code = main(["--config", str(workdir / "run.json")])
    print(f"audit exit code: {code}")

    report = json.loads((workdir / "out" / "report.json").read_text())
    print(f"selected alpha: {report['alpha']}")
    print("cFNR estimates with intervals:")
    for row in report["estimates"]:
        if row["metric"] != "cFNR" or row["method"] != "proposed-borrowing":
            continue
        if row.get("lower") is not None:
            print(f"  {row['group']:>8}: {row['value']:.3f} "
                  f"[{row['lower']:.3f}, {row['upper']:.3f}]")
        else:
            print(f"  {row['group']:>8}: {row['value']}")

    # --- reproduce from the manifest into a second directory
    code = main(["--config", str(workdir / "out" / "manifest.json"),
                 "--out", str(workdir / "again")])
    print(f"\nmanifest re-run exit code: {code}")
    same = (workdir / "out" / "report.json").read_bytes() == \
           (workdir / "again" / "report.json").read_bytes()
    print(f"report.json byte-identical across runs: {same}")
