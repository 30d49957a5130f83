import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import cfaudit
from cfaudit.cli import REPORT_SCHEMA_PATH, main
from cfaudit.dataset import write_external, write_internal
from cfaudit.simlab import (ScenarioConfig, generate_population, sim_schema,
                            to_audit_dataset, to_external_dataset,
                            train_risk_model)


def make_audit_files(tmp_path, n_internal=150, n_external=400, seed=5):
    cfg = ScenarioConfig(n_internal=n_internal, n_external=n_external,
                         n_train=400, n_validation=1000, replications=1, seed=seed)
    ch = np.random.SeedSequence(seed).spawn(4)
    train = generate_population(cfg, "train", ch[0])
    model = train_risk_model(train.x, train.y, n_trees=20, seed=ch[1])
    schema = sim_schema(cfg)
    internal = to_audit_dataset(
        generate_population(cfg, "internal", ch[2], risk_model=model), schema)
    external = to_external_dataset(generate_population(cfg, "external", ch[3]), schema)

    write_internal(internal, tmp_path / "internal.csv")
    write_external(external, tmp_path / "external.csv")
    with open(tmp_path / "schema.json", "w") as f:
        json.dump(schema.to_dict(), f)
    return schema


def audit_config(tmp_path, with_external=True, bootstrap_b=0, **extra):
    cfg = {
        "mode": "audit",
        "seed": 11,
        "out": "out",
        "internal": "internal.csv",
        "schema": "schema.json",
        "reference_group": ["0", "0"],
        "models": {
            "pi": {"kind": "logistic-IRLS", "l2": 0.05},
            "mu": {"kind": "logistic-IRLS", "l2": 0.05},
            "h_internal": {"kind": "softmax-linear", "epochs": 40, "lr": 0.5},
            "h_external": {"kind": "softmax-linear", "epochs": 40, "lr": 0.5},
            "crossfit_k": 1,
        },
        "borrowing": {"enabled": True, "metric": "brier", "grid_step": 0.05},
        "bootstrap": {"B": bootstrap_b, "level": 0.95},
    }
    if with_external:
        cfg["external"] = "external.csv"
    cfg.update(extra)
    path = tmp_path / "run.json"
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def read_report(tmp_path):
    with open(tmp_path / "out" / "report.json") as f:
        return json.load(f)


def test_audit_internal_only_skips_borrowing(tmp_path):
    make_audit_files(tmp_path)
    code = main(["--config", str(audit_config(tmp_path, with_external=False))])
    assert code == 0
    report = read_report(tmp_path)
    assert report["alpha"] is None
    assert all(e["method"] != "proposed-borrowing" for e in report["estimates"])
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_audit_full_run_reports_alpha_and_deltas(tmp_path):
    make_audit_files(tmp_path)
    code = main(["--config", str(audit_config(tmp_path))])
    assert code == 0
    report = read_report(tmp_path)
    assert report["alpha"] is not None
    assert 0.0 <= report["alpha"] <= 1.0
    methods = {e["method"] for e in report["estimates"]}
    assert "proposed-borrowing" in methods
    # deltas against the majority reference for every other defined group
    assert report["reference_group"] == "0|0"
    assert all(d["reference"] == "0|0" for d in report["deltas"])
    proposed_deltas = [d for d in report["deltas"]
                       if d["method"] == "proposed-internal"]
    assert len(proposed_deltas) == 6  # 3 non-reference groups x 2 metrics
    # subgroup counts included and consistent
    total = sum(sum(cells.values()) for cells in report["subgroup_counts"].values())
    assert total == report["n_internal"]


def test_deltas_are_the_defined_differences_from_the_reference(tmp_path):
    make_audit_files(tmp_path)
    # no untreated y = 1 row in group 1|1 leaves its comparison cFNR undefined;
    # no y = 0 row in the reference 0|1 leaves the reference's comparison cFPR undefined
    rows = list(csv.reader(open(tmp_path / "internal.csv")))
    col = {name: i for i, name in enumerate(rows[0])}
    for row in rows[1:]:
        group = (row[col["a1"]], row[col["a2"]])
        if group == ("1", "1"):
            row[col["y"]] = "0"
        elif group == ("0", "1"):
            row[col["y"]] = "1"
    with open(tmp_path / "internal.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert main(["--config", str(audit_config(tmp_path, reference_group=["0", "1"]))]) == 0
    report = read_report(tmp_path)
    est = {(e["group"], e["metric"], e["method"]): e for e in report["estimates"]}
    assert not est[("1|1", "cFNR", "comparison")]["defined"]
    assert not est[("0|1", "cFPR", "comparison")]["defined"]

    expected = []
    for method in sorted({e["method"] for e in report["estimates"]}):
        for metric in ("cFPR", "cFNR"):
            ref = est[("0|1", metric, method)]
            for group in ("0|0", "1|0", "1|1"):
                rate = est[(group, metric, method)]
                if rate["defined"] and ref["defined"]:
                    expected.append({"metric": f"delta_{metric}", "method": method,
                                     "group": group, "reference": "0|1",
                                     "value": rate["value"] - ref["value"]})
    assert report["reference_group"] == "0|1"
    assert report["deltas"] == expected
    assert not any(d["method"] == "comparison" and d["metric"] == "delta_cFPR"
                   for d in report["deltas"])
    assert len(expected) == 3 * 2 * 3 - 3 - 1  # every cell but the undefined ones


def test_report_json_validates_against_shipped_schema(tmp_path):
    make_audit_files(tmp_path)
    assert main(["--config", str(audit_config(tmp_path, bootstrap_b=6))]) == 0
    with open(REPORT_SCHEMA_PATH) as f:
        schema = json.load(f)
    jsonschema.validate(read_report(tmp_path), schema)


def test_audit_bootstrap_fields_present(tmp_path):
    make_audit_files(tmp_path)
    assert main(["--config", str(audit_config(tmp_path, bootstrap_b=6))]) == 0
    report = read_report(tmp_path)
    with_se = [e for e in report["estimates"] if e.get("se") is not None]
    assert with_se
    for e in with_se:
        assert 0.0 <= e["lower"] <= e["upper"] <= 1.0


def test_exit_code_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    with open(path, "w") as f:
        json.dump({"mode": "audit", "internal": "x.csv", "schema": "s.json",
                   "out": "out"}, f)  # no seed
    assert main(["--config", str(path)]) == 2


def test_exit_code_data_error(tmp_path):
    make_audit_files(tmp_path)
    # corrupt the internal file: drop the prediction column
    rows = list(csv.reader(open(tmp_path / "internal.csv")))
    rows[0] = [c if c != "s" else "zz" for c in rows[0]]
    with open(tmp_path / "internal.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert main(["--config", str(audit_config(tmp_path))]) == 1


def test_exit_code_missing_config():
    assert main(["--config", "/nonexistent/run.json"]) == 2


def test_audit_bootstrap_with_external_data_reproduces_across_threads(tmp_path, monkeypatch):
    from cfaudit import cli, inference
    make_audit_files(tmp_path)
    cfgpath = audit_config(tmp_path, bootstrap_b=3)
    runs = []
    real_run = inference.run_pipeline

    def counting_run(*args, **kwargs):
        runs.append(args[1])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", counting_run)
    monkeypatch.setattr(inference, "run_pipeline", counting_run)
    assert main(["--config", str(cfgpath), "--out", str(tmp_path / "t1"),
                 "--threads", "1"]) == 0
    assert len(runs) > 3  # the point run and every replicate
    assert all(external is not None and external.n == 400 for external in runs)
    monkeypatch.undo()
    assert main(["--config", str(tmp_path / "t1" / "manifest.json"),
                 "--out", str(tmp_path / "t2"), "--threads", "2"]) == 0
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def fail_on_fit(monkeypatch):
    from cfaudit import models, simlab

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before the config was checked")

    monkeypatch.setattr(models, "fit_multiclass", no_fit)
    monkeypatch.setattr(models, "fit_logistic", no_fit)
    monkeypatch.setattr(simlab, "train_risk_model", no_fit)


def test_bad_grid_step_in_audit_config_is_a_config_error(tmp_path, monkeypatch, capsys):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    cfgpath = audit_config(tmp_path, borrowing={"enabled": True, "metric": "brier",
                                                "grid_step": 0.3})
    assert main(["--config", str(cfgpath)]) == 2
    assert "grid step" in capsys.readouterr().err


def test_bad_grid_step_override_is_a_config_error(tmp_path, monkeypatch, capsys):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    for step in ("0.3", "0", "-0.5"):
        assert main(["--config", str(audit_config(tmp_path)),
                     "--alpha-grid-step", step]) == 2
        assert "grid step" in capsys.readouterr().err


def scenario_dict(**kw):
    base = {
        "n_internal": 60, "n_external": 150, "n_train": 300,
        "n_validation": 1000, "replications": 2, "seed": 3,
        "pipeline": {
            "pi": {"l2": 0.1}, "mu": {"l2": 0.1},
            "h_internal": {"kind": "softmax-linear", "epochs": 25},
            "h_external": {"kind": "softmax-linear", "epochs": 25},
            "crossfit_k": 1, "alpha_grid_step": 0.05,
        },
    }
    base.update(kw)
    return base


def simulate_config(tmp_path, scenario, seed=9):
    path = tmp_path / "sim.json"
    with open(path, "w") as f:
        json.dump({"mode": "simulate", "seed": seed, "out": "simout",
                   "scenario": scenario}, f)
    return path


def test_simulate_smoke_outputs_wellformed(tmp_path):
    code = main(["--config", str(simulate_config(tmp_path, scenario_dict()))])
    assert code == 0
    out = tmp_path / "simout"
    reps = list(csv.reader(open(out / "replications.csv")))
    assert reps[0] == ["replication", "group", "metric", "method", "value",
                       "defined", "alpha"]
    # 2 replications x 5 group rows x 2 metrics x 3 methods
    assert len(reps) == 1 + 2 * 5 * 2 * 3
    agg = list(csv.reader(open(out / "aggregate.csv")))
    assert len(agg) == 1 + 5 * 2 * 3
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["mode"] == "simulate"
    assert "config_sha256" in manifest


def test_simulate_sweep_aggregate_cardinality(tmp_path):
    scenario = scenario_dict()
    scenario["sweep"] = {"n_internal": [50, 80]}
    code = main(["--config", str(simulate_config(tmp_path, scenario))])
    assert code == 0
    agg = list(csv.reader(open(tmp_path / "simout" / "aggregate.csv")))
    assert agg[0][0] == "n_internal"
    assert len(agg) == 1 + 2 * 5 * 2 * 3  # one row per (N_int, group, metric, method)


def test_simulate_rerun_from_manifest_byte_identical(tmp_path):
    cfgpath = simulate_config(tmp_path, scenario_dict())
    assert main(["--config", str(cfgpath)]) == 0
    out = tmp_path / "simout"
    first = {name: (out / name).read_bytes()
             for name in ("replications.csv", "aggregate.csv")}
    # re-run pointing at the manifest, into a fresh directory
    assert main(["--config", str(out / "manifest.json"),
                 "--out", str(tmp_path / "again")]) == 0
    for name, blob in first.items():
        assert (tmp_path / "again" / name).read_bytes() == blob


def test_simulate_threads_do_not_change_bytes(tmp_path):
    cfgpath = simulate_config(tmp_path, scenario_dict())
    assert main(["--config", str(cfgpath), "--out", str(tmp_path / "t1"),
                 "--threads", "1"]) == 0
    assert main(["--config", str(cfgpath), "--out", str(tmp_path / "t2"),
                 "--threads", "2"]) == 0
    for name in ("replications.csv", "aggregate.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == \
            (tmp_path / "t2" / name).read_bytes()


def test_bad_grid_step_in_scenario_pipeline_is_a_config_error(tmp_path, monkeypatch, capsys):
    fail_on_fit(monkeypatch)
    scenario = scenario_dict()
    scenario["pipeline"]["alpha_grid_step"] = 0.3
    assert main(["--config", str(simulate_config(tmp_path, scenario))]) == 2
    assert "grid step" in capsys.readouterr().err
    assert not (tmp_path / "simout").exists()


def test_bad_number_in_run_config_is_a_config_error(tmp_path, monkeypatch, capsys):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    cfgpath = audit_config(tmp_path, bootstrap={"B": "ten", "level": 0.95})
    assert main(["--config", str(cfgpath)]) == 2
    assert "'ten'" in capsys.readouterr().err


def test_bad_number_in_model_config_is_a_config_error(tmp_path, monkeypatch, capsys):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    models = {"pi": {"kind": "logistic-IRLS", "l2": "x"}}
    assert main(["--config", str(audit_config(tmp_path, models=models))]) == 2
    assert "'x'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--alpha-grid-step", "0.1"),
                                        ("--borrow-metric", "auc"),
                                        ("--bootstrap-b", "5")])
def test_audit_only_override_in_simulate_mode_is_a_config_error(tmp_path, monkeypatch,
                                                                capsys, flag, value):
    fail_on_fit(monkeypatch)
    cfgpath = simulate_config(tmp_path, scenario_dict())
    assert main(["--config", str(cfgpath), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "simout").exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cfaudit.cli; "
         "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cfaudit.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def set_key(config: dict, dotted: str, value):
    """Set the dotted key path of a JSON config, creating objects on the way."""
    *parents, last = dotted.split(".")
    node = config
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    return config


def rewrite(path, dotted, value):
    path.write_text(json.dumps(set_key(json.loads(path.read_text()), dotted, value)))
    return path


@pytest.mark.parametrize("dotted,value,named", [
    ("bootstrap.b", 3, "unknown key bootstrap.b"),
    ("bootstrap.B", 1, "B must be 0 (no intervals) or at least 2"),
    ("borrowing.enabled", "no", "borrowing.enabled: expected bool, got 'no'"),
    ("models.methods", ["comparison", "fancy"], "'fancy'"),
    ("borrowing.metric", "brierr", "'brierr'"),
    ("models.h_internal.kind", "mlp", "'mlp'"),
    ("models.pi.kind", "logistic-gd", "'logistic-gd'"),
    ("models.pi.lr", 0.5, "unknown key models.pi.lr"),
    ("models.h_internal.seed", 4, "unknown key models.h_internal.seed"),
    ("models.borrow_metric", "auc", "models.borrow_metric"),
    ("reference_group", ["9", "9"], "['9', '9']"),
    ("models.crossfit_k", 0, "crossfit_k must be at least 1; got 0"),
    ("models.h_internal.hidden", 0, "models.h_internal: hidden must be at least 1; got 0"),
    ("models.h_external.decay", -1, "models.h_external: decay must be at least 0; got -1.0"),
    ("models.pi.l2", -0.5, "models.pi: l2 must be at least 0; got -0.5"),
    ("threads", -3, "threads must be at least 1; got -3"),
])
def test_bad_audit_config_exits_2_before_any_fit(tmp_path, monkeypatch, capsys,
                                                 dotted, value, named):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    assert main(["--config", str(rewrite(audit_config(tmp_path), dotted, value))]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dotted,value,named", [
    ("scenario.n_intenral", 50, "unknown key scenario.n_intenral"),
    ("scenario.pipeline.h_internal.decy", 1, "unknown key scenario.pipeline.h_internal.decy"),
    ("sweep", {"b": [0.0, 1.0]}, "unknown key sweep"),
    ("scenario.pipeline.methods", ["comparison", "fancy"], "'fancy'"),
    ("scenario.pipeline.borrow", "false", "scenario.pipeline.borrow: expected bool"),
    ("scenario.pipeline.borrow_metric", "brierr", "'brierr'"),
    ("scenario.pipeline.h_internal.kind", "mlp", "'mlp'"),
    ("scenario.pipeline.pi.kind", "logistic-gd", "'logistic-gd'"),
    ("scenario.sweep", {"n_intenral": [50, 80]}, "unknown key scenario.sweep.n_intenral"),
    ("scenario.sweep", {"pipeline": [{}]}, "scenario.sweep.pipeline"),
    ("scenario.sweep", {"b": []}, "scenario.sweep.b"),
    ("scenario.n_trees", 0, "n_trees must be at least 1; got 0"),
    ("scenario.n_trees", -3, "n_trees must be at least 1; got -3"),
    ("scenario.max_depth", 0, "max_depth must be at least 1; got 0"),
    ("scenario.positive_rate", 1.5, "positive_rate must lie in (0, 1); got 1.5"),
    ("scenario.pipeline.crossfit_k", 0, "crossfit_k must be at least 1; got 0"),
    ("scenario.p_noise", -1, "scenario: p_noise must be at least 0; got -1"),
    ("scenario.pipeline.h_external.hidden", 0, "hidden must be at least 1; got 0"),
    ("scenario.pipeline.mu.l2", -1, "l2 must be at least 0; got -1.0"),
    ("threads", 0, "threads must be at least 1; got 0"),
])
def test_bad_simulate_config_exits_2_before_any_fit(tmp_path, monkeypatch, capsys,
                                                    dotted, value, named):
    fail_on_fit(monkeypatch)
    cfgpath = rewrite(simulate_config(tmp_path, scenario_dict()), dotted, value)
    assert main(["--config", str(cfgpath)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "simout").exists()


@pytest.mark.parametrize("drop,named", [
    (lambda schema: schema.pop("treatment"), "schema: missing required key 'treatment'"),
    (lambda schema: schema["characteristics"][0].pop("levels"),
     "characteristics[0]: missing required key 'levels'"),
    (lambda schema: schema["characteristics"][1].update(levels=["0", "1", "1"]),
     "characteristic 'a2' repeats level '1'"),
])
def test_schema_without_a_required_key_exits_2_before_any_fit(tmp_path, monkeypatch, capsys,
                                                              drop, named):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    schema = json.loads((tmp_path / "schema.json").read_text())
    drop(schema)
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    assert main(["--config", str(audit_config(tmp_path))]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_interaction_sweep_with_explicit_coefficients_of_the_wrong_shape(
        tmp_path, monkeypatch, capsys):
    from cfaudit.config import encode
    from cfaudit.simlab import default_coefficients

    fail_on_fit(monkeypatch)
    scenario = scenario_dict(coefficients=encode(default_coefficients()),
                             sweep={"interactions": [False, True]})
    assert main(["--config", str(simulate_config(tmp_path, scenario))]) == 2
    assert "group coefficients must have shape" in capsys.readouterr().err
    assert not (tmp_path / "simout").exists()


def test_interaction_sweep_with_default_coefficients_reruns_from_manifest(tmp_path):
    scenario = scenario_dict(replications=1, sweep={"interactions": [False, True]})
    assert main(["--config", str(simulate_config(tmp_path, scenario))]) == 0
    out = tmp_path / "simout"
    agg = list(csv.reader(open(out / "aggregate.csv")))
    assert agg[0][0] == "interactions"
    assert {row[0] for row in agg[1:]} == {"False", "True"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert "coefficients" not in manifest["config"]["scenario"]
    assert main(["--config", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 0
    for name in ("replications.csv", "aggregate.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()


def test_documented_run_configs_decode_strictly(tmp_path):
    import ast
    import re

    from cfaudit.cli import load_run_config

    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = re.search(r"Example audit config:\s*```json\n(.*?)```", readme, re.S).group(1)
    demo = ast.parse((root / "demos" / "05_cli_roundtrip.py").read_text(encoding="utf-8"))
    run_config = next(ast.literal_eval(node.value) for node in demo.body
                      if isinstance(node, ast.Assign)
                      and getattr(node.targets[0], "id", None) == "run_config")
    for name, config in (("readme", json.loads(example)), ("demo", run_config)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        cfg = load_run_config(path, {})
        assert cfg.mode == "audit" and cfg.pipeline().borrow_metric == "brier"
