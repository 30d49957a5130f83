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
from cfaudit.cli import main
from cfaudit.config import encode
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
        json.dump(encode(schema), f)
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


@pytest.mark.parametrize("metric", ["brier", "auc"])
def test_internal_data_of_one_group_borrow_nothing(tmp_path, metric):
    # no second group to score a blend on: alpha is 0 and the borrowed
    # membership model is the internal one, as with an empty external sample
    make_audit_files(tmp_path)
    rows = list(csv.reader(open(tmp_path / "internal.csv")))
    col = {name: i for i, name in enumerate(rows[0])}
    kept = [row for row in rows[1:] if (row[col["a1"]], row[col["a2"]]) == ("0", "0")]
    assert 0 < len(kept) < len(rows) - 1
    with open(tmp_path / "internal.csv", "w", newline="") as f:
        csv.writer(f).writerows([rows[0], *kept])
    assert main(["--config", str(audit_config(tmp_path, borrowing={
        "enabled": True, "metric": metric, "grid_step": 0.05}))]) == 0
    report = read_report(tmp_path)
    assert report["alpha"] == 0.0
    est = {(e["group"], e["metric"], e["method"]): e["value"] for e in report["estimates"]}
    borrowed = [key for key in est if key[2] == "proposed-borrowing"]
    assert len(borrowed) == 2 * 5  # 4 groups and overall, 2 metrics
    assert all(est[group, rate, "proposed-borrowing"] == est[group, rate, "proposed-internal"]
               for group, rate, _ in borrowed)


def test_a_schema_group_without_internal_rows_has_no_estimate(tmp_path):
    # a1 level "2" never occurs: groups 2|0 and 2|1 have no rows, so no method
    # can estimate their rates, and no delta is taken from them
    make_audit_files(tmp_path)
    schema = json.loads((tmp_path / "schema.json").read_text())
    schema["characteristics"][0]["levels"] = ["0", "1", "2"]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    assert main(["--config", str(audit_config(tmp_path))]) == 0
    report = read_report(tmp_path)
    empty = [e for e in report["estimates"] if e["group"] in ("2|0", "2|1")]
    assert len(empty) == 2 * 2 * 3  # 2 groups, 2 metrics, 3 methods
    assert all(not e["defined"] and e["value"] is None for e in empty)
    assert not any(d["group"] in ("2|0", "2|1") for d in report["deltas"])
    assert all(e["defined"] for e in report["estimates"]
               if e["method"] != "comparison" and e["group"] not in ("2|0", "2|1"))


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
    with open(Path(cfaudit.__file__).with_name("report_schema.json")) as f:
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


def test_a_bootstrap_cell_without_a_point_estimate_reports_no_interval(tmp_path):
    make_audit_files(tmp_path)
    # every row of group 1|1 treated: its comparison cells have no untreated row
    path = tmp_path / "internal.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    for row in rows[1:]:
        if row[:2] == ["1", "1"]:
            row[2] = "1"
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    assert main(["--config", str(audit_config(tmp_path, bootstrap_b=3))]) == 0
    estimates = read_report(tmp_path)["estimates"]
    undefined = [e for e in estimates if e["group"] == "1|1" and e["method"] == "comparison"]
    assert len(undefined) == 2
    for e in undefined:
        assert e["value"] is None and not e["defined"]
        assert [e[k] for k in ("se", "lower", "upper", "truncated_low", "truncated_high")] == [
            None] * 5
        assert (type(e["B"]), type(e["na_count"])) == (int, int)
        assert (e["B"], e["na_count"]) == (3, 3)
    with_interval = [e for e in estimates if e["lower"] is not None]
    assert with_interval
    for e in with_interval:
        assert type(e["truncated_low"]) is bool and type(e["truncated_high"]) is bool


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
    from cfaudit import cli, inference, pipeline
    make_audit_files(tmp_path)
    cfgpath = audit_config(tmp_path, bootstrap_b=3)
    runs = []
    real_run = inference.run_pipeline

    def counting_run(*args, **kwargs):
        runs.append(args[1])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", counting_run)
    monkeypatch.setattr(inference, "run_pipeline", counting_run)
    monkeypatch.setattr(pipeline, "run_pipeline", counting_run)
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


def test_a_swept_seed_is_the_seed_of_its_point(tmp_path):
    for name, seeds in (("s12", [1, 2]), ("s78", [7, 8])):
        scenario = scenario_dict(replications=1, sweep={"seed": seeds})
        assert main(["--config", str(simulate_config(tmp_path, scenario)),
                     "--out", str(tmp_path / name)]) == 0
    assert main(["--config", str(simulate_config(tmp_path, scenario_dict(replications=1, seed=7))),
                 "--out", str(tmp_path / "plain7")]) == 0

    def without_seed_column(name, file):
        lines = (tmp_path / name / file).read_text().splitlines(keepends=True)
        return [line.split(",", 1) for line in lines]

    first = [cells for _, cells in without_seed_column("s12", "aggregate.csv")]
    second = [cells for _, cells in without_seed_column("s78", "aggregate.csv")]
    assert first[0] == second[0] and first[1:] != second[1:]
    for file in ("replications.csv", "aggregate.csv"):
        header, *rows = without_seed_column("s78", file)
        assert header[0] == "seed"
        seven = "".join([header[1]] + [cells for seed, cells in rows if seed == "7"])
        assert seven == (tmp_path / "plain7" / file).read_text()


def test_a_swept_b_point_writes_the_rows_of_its_standalone_run(tmp_path):
    bs = [-1.0, 0.0, 1.0]
    assert main(["--config", str(simulate_config(tmp_path, scenario_dict(sweep={"b": bs}))),
                 "--out", str(tmp_path / "sweep")]) == 0
    for b in bs:
        assert main(["--config", str(simulate_config(tmp_path, scenario_dict(b=b))),
                     "--out", str(tmp_path / f"b{b}")]) == 0
    for file in ("replications.csv", "aggregate.csv"):
        header, *rows = (tmp_path / "sweep" / file).read_text().splitlines(keepends=True)
        assert header.startswith("b,")
        for b in bs:
            point = "".join([header.split(",", 1)[1]] + [
                row.split(",", 1)[1] for row in rows if row.startswith(f"{b!r},")])
            assert point == (tmp_path / f"b{b}" / file).read_text()

    agg = list(csv.DictReader(open(tmp_path / "sweep" / "aggregate.csv")))
    assert any(row["method"] == "proposed-borrowing" for row in agg)
    oracle = {}
    for row in agg:
        oracle.setdefault((row["group"], row["metric"], row["method"]), set()).add(row["oracle"])
    assert all(len(values) == 1 for values in oracle.values())


def test_header_only_internal_csv_exits_1_naming_the_file(tmp_path, monkeypatch, capsys):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    header = (tmp_path / "internal.csv").read_text().splitlines()[0]
    (tmp_path / "internal.csv").write_text(header + "\n")
    assert main(["--config", str(audit_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "internal.csv: no data rows" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("file", ["internal.csv", "external.csv"])
@pytest.mark.parametrize("cell,named", [
    (b"caf\xe9", "not UTF-8 text: invalid continuation byte b'\\xe9'"),
    (b'"' + b"9" * 140_000 + b'"', "line 5: field larger than field limit (131072)"),
], ids=["latin-1", "field-limit"])
def test_an_unreadable_csv_exits_1_naming_the_file(tmp_path, monkeypatch, capsys,
                                                    file, cell, named):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    path = tmp_path / file
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4] = cell + lines[4][lines[4].index(b","):]  # the first cell of data row 4
    path.write_bytes(b"".join(lines))
    assert main(["--config", str(audit_config(tmp_path))]) == 1
    assert capsys.readouterr().err == f"data error: {path}: {named}\n"
    assert not (tmp_path / "out").exists()


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


def test_relative_paths_resolve_once_and_the_manifest_reruns_from_anywhere(
        tmp_path, monkeypatch):
    # paths in a config resolve against its directory and --out against the
    # working directory; the manifest records them as absolute paths
    sub = tmp_path / "sub"
    sub.mkdir()
    make_audit_files(sub)
    audit_config(sub)
    monkeypatch.chdir(tmp_path)
    here = Path.cwd()
    assert main(["--config", "sub/run.json", "--out", "o5"]) == 0
    assert not (sub / "o5").exists()
    config = json.loads((here / "o5" / "manifest.json").read_text())["config"]
    assert [config[key] for key in ("internal", "external", "schema", "out")] == [
        str(here / "sub" / name) for name in ("internal.csv", "external.csv", "schema.json")
    ] + [str(here / "o5")]
    monkeypatch.chdir(sub)
    assert main(["--config", "../o5/manifest.json", "--out", "o6"]) == 0
    for name in ("report.json", "report.csv"):
        assert (here / "sub" / "o6" / name).read_bytes() == (here / "o5" / name).read_bytes()


def test_a_manifest_rerun_without_out_writes_where_its_run_wrote(tmp_path, monkeypatch):
    simulate_config(tmp_path, scenario_dict(replications=1))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", "sim.json"]) == 0
    out = Path.cwd() / "simout"
    first = {name: (out / name).read_bytes() for name in ("replications.csv", "aggregate.csv")}
    for name in first:
        (out / name).unlink()
    assert main(["--config", "simout/manifest.json"]) == 0
    assert not (out / "simout").exists()
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_seed_flag_is_the_seed_of_a_scenario_that_sets_its_own(tmp_path):
    cfgpath = simulate_config(tmp_path, scenario_dict(replications=1, seed=3))
    for seed in (1, 2):
        assert main(["--config", str(cfgpath), "--seed", str(seed),
                     "--out", str(tmp_path / f"seed{seed}")]) == 0
        manifest = json.loads((tmp_path / f"seed{seed}" / "manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["scenario"]["seed"] == seed
    assert ((tmp_path / "seed1" / "aggregate.csv").read_bytes()
            != (tmp_path / "seed2" / "aggregate.csv").read_bytes())
    assert main(["--config", str(tmp_path / "seed2" / "manifest.json"),
                 "--out", str(tmp_path / "again")]) == 0
    for name in ("replications.csv", "aggregate.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "seed2" / name).read_bytes()


def test_simulate_threads_do_not_change_bytes(tmp_path):
    # one scenario, and a sweep whose b points share their stages and whose
    # n_internal points do not
    for case, scenario in (("plain", scenario_dict()),
                           ("swept", scenario_dict(sweep={"b": [0.0, 1.0],
                                                          "n_internal": [50, 60]}))):
        cfgpath = simulate_config(tmp_path, scenario)
        for threads in ("1", "2"):
            assert main(["--config", str(cfgpath), "--out", str(tmp_path / case / threads),
                         "--threads", threads]) == 0
        for name in ("replications.csv", "aggregate.csv"):
            assert (tmp_path / case / "1" / name).read_bytes() == \
                (tmp_path / case / "2" / name).read_bytes()


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


@pytest.mark.parametrize("manifest", [False, True], ids=["config", "manifest"])
@pytest.mark.parametrize("dotted,value,named", [
    ("models.pi.l2", float("nan"), "NaN"),
    ("models.h_internal.decay", float("inf"), "Infinity"),
    ("borrowing.grid_step", float("-inf"), "-Infinity"),
])
def test_nan_or_infinity_in_a_run_config_exits_2_before_any_fit(tmp_path, monkeypatch, capsys,
                                                                manifest, dotted, value, named):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    path = rewrite(audit_config(tmp_path), dotted, value)  # json.dumps writes NaN as NaN
    if manifest:
        path.write_text(json.dumps({"config_sha256": "0", "config": json.loads(path.read_text())}))
    assert main(["--config", str(path)]) == 2
    assert (capsys.readouterr().err
            == f"config error: config is not valid JSON: {named} is not a JSON number\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest", [False, True], ids=["config", "manifest"])
def test_a_run_config_that_is_not_utf8_exits_2(tmp_path, capsys, manifest):
    path = audit_config(tmp_path)
    if manifest:
        path.write_text(json.dumps({"config_sha256": "0", "config": json.loads(path.read_text())}))
    path.write_bytes(path.read_bytes().replace(b'"out": "out"', b'"out": "caf\xe9"'))
    assert main(["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not UTF-8 text: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest", [False, True], ids=["config", "manifest"])
def test_a_key_repeated_in_a_run_config_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                          manifest):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    path = audit_config(tmp_path, bootstrap_b=3)
    if manifest:
        path.write_text(json.dumps({"config_sha256": "0", "config": json.loads(path.read_text())}))
    # json.load would keep the second block and run with B = 3
    path.write_text(path.read_text().replace(
        '"bootstrap": {', '"bootstrap": {"B": 0, "level": 0.95}, "bootstrap": {'))
    assert main(["--config", str(path)]) == 2
    assert (capsys.readouterr().err
            == "config error: config: key 'bootstrap' appears twice in one object\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change,named", [
    (lambda text: text.replace('"treatment": "d"', '"treatment": "y", "treatment": "d"'),
     "schema: key 'treatment' appears twice in one object"),
    (lambda text: text.replace('"treatment": "d"', '"treatment": NaN'),
     "schema is not valid JSON: NaN is not a JSON number"),
], ids=["repeated-key", "nan"])
def test_a_schema_file_is_read_as_strictly_as_a_run_config(tmp_path, monkeypatch, capsys,
                                                           change, named):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    path = tmp_path / "schema.json"
    text = path.read_text()
    assert '"treatment": "d"' in text
    path.write_text(change(text))
    assert main(["--config", str(audit_config(tmp_path))]) == 2
    assert capsys.readouterr().err == f"config error: schema {path}: {named}\n"
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cfaudit.cli; "
         "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cfaudit.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_a_bootstrap_audit_loads_no_scipy_module(tmp_path):
    make_audit_files(tmp_path, n_internal=100, n_external=200)
    config = audit_config(tmp_path, bootstrap_b=3)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cfaudit.cli import main; code = main(sys.argv[1:]); "
         "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
         "--config", str(config)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(cfaudit.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 []"
    assert read_report(tmp_path)["estimates"][0]["B"] == 3


# Modules that an audit without a bootstrap never runs: the simulation lab,
# the bootstrap with its decimal t quantile, and numpy.ma, which a plain
# np.unique call imports.
UNUSED_BY_AUDITS = ("cfaudit.simlab", "cfaudit.inference", "decimal", "numpy.ma")


def loaded_modules(code: str, *args, cwd=None) -> set[str]:
    """The cfaudit submodules and UNUSED_BY_AUDITS modules that a fresh
    interpreter holds after running code with args, read at exit so that a
    SystemExit, as from --help, still reports them."""
    report = ("import atexit, json, sys\n"
              "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if "
              f"m.startswith('cfaudit.') or m in {UNUSED_BY_AUDITS!r}))))\n")
    proc = subprocess.run(
        [sys.executable, "-c", report + code, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(Path(cfaudit.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("import cfaudit") == set()


@pytest.mark.parametrize("command,unused", [
    ("--help", UNUSED_BY_AUDITS),
    ("auc audit", UNUSED_BY_AUDITS),
    ("brier bootstrap audit", ("cfaudit.simlab",)),
])
def test_a_command_loads_none_of_the_modules_it_does_not_run(tmp_path, command, unused):
    args = [command]
    if command != "--help":
        make_audit_files(tmp_path, n_internal=100, n_external=200)
        metric = command.split()[0]
        b = 3 if "bootstrap" in command else 0
        config = audit_config(tmp_path, bootstrap_b=b, borrowing={
            "enabled": True, "metric": metric, "grid_step": 0.05})
        args = ["--config", str(config)]
    loaded = loaded_modules("from cfaudit.cli import main\nsys.exit(main())", *args,
                            cwd=tmp_path)
    assert "cfaudit.cli" in loaded
    assert loaded & set(unused) == set()
    if command != "--help":
        report = read_report(tmp_path)
        assert report["borrow_metric"] == metric
        assert report["estimates"][0].get("B") == (b or None)


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
    ("models.methods", ["comparison", "proposed-internal", "proposed-borrowing"],
     "unknown key models.methods"),
    ("borrowing.metric", "brierr", "'brierr'"),
    ("models.h_internal.kind", "mlp", "'mlp'"),
    ("models.pi.kind", "logistic-gd", "'logistic-gd'"),
    ("models.pi.lr", 0.5, "unknown key models.pi.lr"),
    ("models.h_internal.seed", 4, "unknown key models.h_internal.seed"),
    ("models.borrow", False, "unknown key models.borrow"),
    ("models.borrow_metric", "auc", "unknown key models.borrow_metric"),
    ("models.alpha_grid_step", 0.01, "unknown key models.alpha_grid_step"),
    ("reference_group", ["9", "9"], "['9', '9']"),
    ("models.crossfit_k", 0, "crossfit_k must be at least 1; got 0"),
    ("models.h_internal.hidden", 0, "models.h_internal: hidden must be at least 1; got 0"),
    ("models.h_external.decay", -1, "models.h_external: decay must be at least 0; got -1.0"),
    ("models.pi.l2", -0.5, "models.pi: l2 must be at least 0; got -0.5"),
    ("models.h_internal.epochs", -3, "models.h_internal: epochs must be at least 0; got -3"),
    ("models.h_external.lr", -50, "models.h_external: lr must be greater than 0; got -50.0"),
    ("models.h_internal.lr", 0, "models.h_internal: lr must be greater than 0; got 0.0"),
    ("threads", -3, "threads must be at least 1; got -3"),
    ("models.pi.max_iter", 100, "unknown key models.pi.max_iter"),
    ("seed", -1, "config: seed must be at least 0; got -1"),
    ("borrowing.grid_step", 0, "alpha grid step must lie in (0, 1]; got 0"),
    ("borrowing.grid_step", -0.5, "alpha grid step must lie in (0, 1]; got -0.5"),
    ("bootstrap.level", 0.9999999999999999, "level must lie in (0, 1)"),
    ("bootstrap.level", 1e-17, "level must lie in (0, 1)"),
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
    ("scenario.pipeline.methods", ["comparison", "proposed-internal"],
     "unknown key scenario.pipeline.methods"),
    ("scenario.pipeline.borrow", "false", "scenario.pipeline.borrow: expected bool"),
    ("scenario.pipeline.borrow_metric", "brierr", "'brierr'"),
    ("scenario.pipeline.h_internal.kind", "mlp", "'mlp'"),
    ("scenario.pipeline.pi.kind", "logistic-gd", "'logistic-gd'"),
    ("scenario.sweep", {"n_intenral": [50, 80]}, "unknown key scenario.sweep.n_intenral"),
    ("scenario.sweep", {"pipeline": [{}]}, "scenario.sweep.pipeline"),
    ("scenario.sweep", {"b": []}, "scenario.sweep.b"),
    ("scenario.sweep", {"b": [0.5, 1.0, 0.5]}, "scenario.sweep.b: 0.5 appears more than once"),
    ("scenario.n_trees", 0, "n_trees must be at least 1; got 0"),
    ("scenario.n_trees", -3, "n_trees must be at least 1; got -3"),
    ("scenario.max_depth", 0, "max_depth must be at least 1; got 0"),
    ("scenario.positive_rate", 1.5, "positive_rate must lie in (0, 1); got 1.5"),
    ("scenario.pipeline.crossfit_k", 0, "crossfit_k must be at least 1; got 0"),
    ("scenario.p_noise", -1, "scenario: p_noise must be at least 0; got -1"),
    ("scenario.pipeline.h_external.hidden", 0, "hidden must be at least 1; got 0"),
    ("scenario.pipeline.mu.l2", -1, "l2 must be at least 0; got -1.0"),
    ("scenario.pipeline.h_external.epochs", -1,
     "scenario.pipeline.h_external: epochs must be at least 0; got -1"),
    ("scenario.pipeline.h_internal.lr", -0.5,
     "scenario.pipeline.h_internal: lr must be greater than 0; got -0.5"),
    ("threads", 0, "threads must be at least 1; got 0"),
    ("scenario.seed", -3, "scenario: seed must be at least 0; got -3"),
    ("scenario.n_internal", 0, "scenario: n_internal must be at least 1; got 0"),
    ("scenario.replications", 0, "scenario: replications must be at least 1; got 0"),
    ("scenario.b", 1.5, "scenario: b must lie in [-1, 1]; got 1.5"),
])
def test_bad_simulate_config_exits_2_before_any_fit(tmp_path, monkeypatch, capsys,
                                                    dotted, value, named):
    fail_on_fit(monkeypatch)
    cfgpath = rewrite(simulate_config(tmp_path, scenario_dict()), dotted, value)
    assert main(["--config", str(cfgpath)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "simout").exists()


@pytest.mark.parametrize("drop,named", [
    (lambda schema: schema.pop("treatment"), "required key schema.treatment"),
    (lambda schema: schema["characteristics"][0].pop("levels"), "characteristics[0].levels"),
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


def _use_treatment_as_covariate(schema):
    schema["covariates"][0] = "d"
    del schema["external_covariates"]


@pytest.mark.parametrize("change,named", [
    (lambda schema: schema.update(external_covarites=schema.pop("external_covariates")[:5]),
     "unknown key schema.external_covarites"),
    (lambda schema: schema.update(covariates="x12"),
     "schema.covariates: expected tuple, got 'x12'"),
    (lambda schema: schema["characteristics"][0].update(levels=[0, 1]),
     "schema.characteristics[0].levels[0]: expected str, got 0"),
    (lambda schema: schema["characteristics"][1].update(levels=[]),
     "schema.characteristics[1]: characteristic 'a2' has no levels"),
    (lambda schema: schema["characteristics"][1].update(levels=["", "1"]),
     "schema.characteristics[1]: characteristic 'a2' has an empty level"),
    (lambda schema: schema.update(treatment=5), "schema.treatment: expected str, got 5"),
    (lambda schema: schema["characteristics"][0].update(colour="red"),
     "unknown key schema.characteristics[0].colour"),
    (lambda schema: schema["characteristics"][1].update(name="a1"),
     "column 'a1' is both characteristics[0].name and characteristics[1].name"),
    (_use_treatment_as_covariate, "column 'd' is both treatment and covariates[0]"),
    (lambda schema: schema.update(external_covariates=[]),
     "schema: external_covariates must name at least one covariate"),
    (lambda schema: [schema["characteristics"][0].update(levels=["a|b", "a"]),
                     schema["characteristics"][1].update(levels=["c", "b|c"])],
     "schema: group label 'a|b|c' names more than one report row"),
    (lambda schema: schema.update(characteristics=[{"name": "a1", "levels": ["x", "overall"]}]),
     "schema: group label 'overall' names more than one report row"),
], ids=["misspelled-key", "string-covariates", "numeric-levels", "no-levels", "empty-level",
        "numeric-treatment", "unknown-characteristic-key", "repeated-characteristic",
        "covariate-named-like-treatment", "no-external-covariates", "clashing-group-labels",
        "group-labelled-overall"])
def test_malformed_schema_exits_2_naming_the_file_and_key_before_any_fit(
        tmp_path, monkeypatch, capsys, change, named):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    path = tmp_path / "schema.json"
    schema = json.loads(path.read_text())
    change(schema)
    path.write_text(json.dumps(schema))
    assert main(["--config", str(audit_config(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert f"schema {path}: " in err and named in err
    assert not (tmp_path / "out").exists()


def test_missing_schema_file_exits_1(tmp_path, capsys):
    make_audit_files(tmp_path)
    (tmp_path / "schema.json").unlink()
    assert main(["--config", str(audit_config(tmp_path))]) == 1
    assert "schema.json" in capsys.readouterr().err


def test_every_schema_the_repo_writes_decodes_strictly_and_round_trips(tmp_path, monkeypatch):
    import re
    import runpy

    from cfaudit.config import decode
    from cfaudit.dataset import SchemaSpec

    root = Path(__file__).resolve().parents[1]
    written = {}
    monkeypatch.syspath_prepend(str(root / "bench"))
    from workloads import write_inputs
    for workload in ("audit-boot", "audit-wide"):
        write_inputs(workload, 1, tmp_path / workload, smoke=True)
        written[workload] = json.loads((tmp_path / workload / "schema.json").read_text())

    readme = (root / "README.md").read_text(encoding="utf-8")
    example = re.search(r"Example schema:\s*```json\n(.*?)```", readme, re.S).group(1)
    written["readme"] = json.loads(example)

    class SchemaWritten(Exception):
        pass

    def stop_at_the_first_run(argv):  # demo 05 has written its schema next to the config
        written["demo"] = json.loads((Path(argv[1]).parent / "schema.json").read_text())
        raise SchemaWritten

    monkeypatch.setattr("cfaudit.cli.main", stop_at_the_first_run)
    with pytest.raises(SchemaWritten):
        runpy.run_path(str(root / "demos" / "05_cli_roundtrip.py"))
    written["sim_schema"] = encode(sim_schema(ScenarioConfig()))

    for name, raw in written.items():
        schema = decode(SchemaSpec, raw, "schema")
        assert encode(schema) == raw, name
        assert decode(SchemaSpec, encode(schema), "schema") == schema, name


def test_each_config_type_encodes_exactly_its_fields():
    import dataclasses

    from cfaudit.cli import AuditConfig, SimulateConfig
    from cfaudit.models import BinarySpec, MulticlassConfig, NuisanceModels
    from cfaudit.pipeline import PipelineConfig

    configs = [
        PipelineConfig(), NuisanceModels(), MulticlassConfig(), BinarySpec(), ScenarioConfig(),
        AuditConfig(mode="audit", seed=1, out=Path("out"), internal=Path("internal.csv"),
                    schema=Path("schema.json")),
        SimulateConfig(mode="simulate", seed=1, out=Path("out"), scenario={}),
        sim_schema(ScenarioConfig()),
    ]
    for config in configs:
        names = [f.name for f in dataclasses.fields(config)]
        assert list(encode(config)) == names, type(config).__name__


def test_non_finite_external_cell_exits_1_before_any_fit(tmp_path, monkeypatch, capsys):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    rows = list(csv.reader(open(tmp_path / "external.csv")))
    rows[3][rows[0].index("x2")] = "nan"
    with open(tmp_path / "external.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert main(["--config", str(audit_config(tmp_path))]) == 1
    external = tmp_path / "external.csv"
    assert f"{external}: non-numeric value 'nan' for x2 in row 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["internal.csv", "external.csv"])
def test_a_row_of_the_wrong_width_exits_1_naming_its_file(tmp_path, monkeypatch, capsys, name):
    make_audit_files(tmp_path)
    fail_on_fit(monkeypatch)
    path = tmp_path / name
    rows = list(csv.reader(open(path)))
    rows[3].append("0")
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert main(["--config", str(audit_config(tmp_path))]) == 1
    width = len(rows[0])
    assert (f"{path}: row 3 has {width + 1} cells; the header has {width}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_model_error_of_the_point_run_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    from cfaudit import cli

    make_audit_files(tmp_path)
    rows = list(csv.reader(open(tmp_path / "internal.csv")))
    with open(tmp_path / "internal.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows[:3])  # the header and two rows
    config = rewrite(rewrite(audit_config(tmp_path), "models.pi.l2", 0), "models.mu.l2", 0)
    assert main(["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()

    def broken_pipeline(*args, **kwargs):
        raise RuntimeError("a bug, not a model failure")

    monkeypatch.setattr(cli, "run_pipeline", broken_pipeline)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["--config", str(config)])


def test_a_constant_risk_model_training_outcome_exits_1_without_traceback(tmp_path, capsys):
    scenario = {"n_internal": 100, "n_external": 100, "n_train": 1, "n_validation": 500,
                "n_trees": 3, "replications": 1}  # one training row: a constant outcome
    assert main(["--config", str(simulate_config(tmp_path, scenario, seed=1))]) == 1
    assert capsys.readouterr().err == "model error: training outcome is constant\n"
    assert not (tmp_path / "simout").exists()


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
