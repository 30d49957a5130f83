"""Auditing a risk predictor when some protected subgroups are tiny.
====================================================================

The cell-restricted weighted estimator needs untreated rows inside a
group's false-negative (or false-positive) confusion cell. For a group
with a handful of rows, that cell is often empty and the estimate simply
does not exist. The ratio-form estimator multiplies the overall error
rate (computed from every row) by a group-membership ratio, so it stays
computable for the same data.

This script simulates a small clinical-style audit sample, runs both
estimators, and prints them side by side.
"""

import numpy as np

from cfaudit.models import BinarySpec, MulticlassConfig
from cfaudit.pipeline import PipelineConfig, run_pipeline
from cfaudit.simlab import (SIM_GROUPS, ScenarioConfig, generate_population,
                            sim_schema, to_audit_dataset, train_risk_model)

# --- simulate a deployment: a risk model scores patients, treatment follows
cfg = ScenarioConfig(n_internal=100, replications=1, seed=555)
children = np.random.SeedSequence(cfg.seed).spawn(3)
train = generate_population(cfg, "train", children[0])
risk_model = train_risk_model(train.x, train.y, seed=children[1])

schema = sim_schema(cfg)
internal = to_audit_dataset(
    generate_population(cfg, "internal", children[2], risk_model=risk_model),
    schema)

counts = np.bincount(internal.group_codes, minlength=schema.n_groups)
sizes = {g.label(): int(c) for g, c in zip(schema.all_groups(), counts)}
print(f"internal sample: n={internal.n}, group sizes {sizes}")

# --- estimate counterfactual error rates both ways (no external data here)
pipeline = PipelineConfig(
    pi=BinarySpec(l2=0.01),
    mu=BinarySpec(l2=0.01),
    h_internal=MulticlassConfig(kind="softmax-linear", epochs=300, lr=1.0),
    crossfit_k=1,
    borrow=False,
    methods=("comparison", "proposed-internal"),
)
result = run_pipeline(internal, None, pipeline, seed=7)

# the report's cells come in report_keys order: per method, per metric, the
# overall rate and then each group code
cells = dict(zip(result.report.keys(), result.report.entries))
print(f"\n{'group':>8} {'metric':>6} {'comparison':>12} {'proposed':>10}")
for metric in ("cFNR", "cFPR"):
    for group in [None] + list(range(len(SIM_GROUPS))):
        cmp_ = cells[(group, metric, "comparison")]
        label = "overall" if group is None else SIM_GROUPS[group].label()
        if group is None:
            prop_txt = ""
        else:
            prop = cells[(group, metric, "proposed-internal")]
            prop_txt = f"{prop.value:10.3f}" if prop.defined else "   (undef)"
        cmp_txt = f"{cmp_.value:12.3f}" if cmp_.defined else "  inestimable"
        print(f"{label:>8} {metric:>6} {cmp_txt} {prop_txt}")

print("\nGroups whose confusion cells are empty come back 'inestimable' under")
print("the comparison route; the ratio-form estimates exist for all of them.")
