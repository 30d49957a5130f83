import json

import numpy as np

from cfaudit.config import decode, encode
from cfaudit.dataset import ExternalDataset
from cfaudit.estimators import METHODS, report_keys
from cfaudit.models import BinarySpec, MulticlassConfig
from cfaudit.pipeline import PipelineConfig, run_pipeline
from cfaudit.simlab import (ScenarioConfig, generate_population, sim_schema,
                            to_audit_dataset, to_external_dataset,
                            train_risk_model)


def sim_data(seed=4, n_internal=120, n_external=300):
    cfg = ScenarioConfig(n_internal=n_internal, n_external=n_external,
                         n_train=400, n_validation=1000, replications=1, seed=seed)
    ch = np.random.SeedSequence(seed).spawn(4)
    train = generate_population(cfg, "train", ch[0])
    model = train_risk_model(train.x, train.y, n_trees=20, seed=ch[1])
    schema = sim_schema(cfg)
    internal = to_audit_dataset(
        generate_population(cfg, "internal", ch[2], risk_model=model), schema)
    external = to_external_dataset(generate_population(cfg, "external", ch[3]), schema)
    return internal, external


def fast_pipeline(**kw):
    base = dict(
        pi=BinarySpec(l2=0.1), mu=BinarySpec(l2=0.1),
        h_internal=MulticlassConfig(epochs=30, lr=0.5),
        h_external=MulticlassConfig(epochs=30, lr=0.5),
        crossfit_k=1, alpha_grid_step=0.05,
    )
    base.update(kw)
    return PipelineConfig(**base)


def test_pipeline_without_external_drops_borrowing():
    internal, _ = sim_data()
    result = run_pipeline(internal, None, fast_pipeline(), seed=1)
    assert result.alpha is None
    assert all(e.method != "proposed-borrowing" for e in result.report.entries)


def test_pipeline_empty_external_degenerates_to_alpha_zero():
    internal, external = sim_data()
    empty = ExternalDataset(schema=external.schema,
                            group_codes=external.group_codes[:0],
                            x=external.x[:0])
    result = run_pipeline(internal, empty, fast_pipeline(), seed=1)
    assert result.alpha == 0.0
    # in report_keys order the methods run comparison, proposed-internal, proposed-borrowing
    by_method = result.report.values(report_keys(internal.schema.n_groups, METHODS)).reshape(3, -1)
    assert np.array_equal(by_method[1], by_method[2], equal_nan=True)


def test_pipeline_deterministic_given_seed():
    internal, external = sim_data()
    r1 = run_pipeline(internal, external, fast_pipeline(), seed=42)
    r2 = run_pipeline(internal, external, fast_pipeline(), seed=42)
    assert r1.alpha == r2.alpha
    for e1, e2 in zip(r1.report.entries, r2.report.entries):
        assert e1.value == e2.value


def test_pipeline_crossfit_path():
    internal, external = sim_data(n_internal=400)
    result = run_pipeline(internal, external, fast_pipeline(crossfit_k=5), seed=3)
    assert result.report.entries
    keys = report_keys(internal.schema.n_groups, METHODS)
    overall = result.report.entries[keys.index((None, "cFNR", "comparison"))]
    assert overall.defined and 0.0 <= overall.value <= 1.0


def test_pipeline_config_dict_roundtrip():
    cfg = fast_pipeline(crossfit_k=3, borrow_metric="auc",
                        methods=("comparison", "proposed-internal"))
    back = decode(PipelineConfig, json.loads(json.dumps(encode(cfg))), "pipeline")
    assert back == cfg