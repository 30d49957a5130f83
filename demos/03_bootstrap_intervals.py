"""Bootstrap confidence intervals, stratified by protected group.
=================================================================

Each replicate resamples rows with replacement inside every group (so no
group ever vanishes), re-fits all nuisance models and the borrowing
weight, and re-computes every estimate. Intervals are t-intervals around
the full-sample point estimate, truncated to [0, 1]; replicates where a
cell is inestimable are counted as NA rather than imputed.
"""

import numpy as np

from cfaudit.inference import bootstrap_estimates
from cfaudit.models import BinarySpec, MulticlassConfig
from cfaudit.pipeline import PipelineConfig
from cfaudit.simlab import (ScenarioConfig, generate_population, sim_schema,
                            to_audit_dataset, train_risk_model)

cfg = ScenarioConfig(n_internal=400, replications=1, seed=31)
children = np.random.SeedSequence(cfg.seed).spawn(3)
train = generate_population(cfg, "train", children[0])
risk_model = train_risk_model(train.x, train.y, seed=children[1])
schema = sim_schema(cfg)
internal = to_audit_dataset(
    generate_population(cfg, "internal", children[2], risk_model=risk_model),
    schema)

pipeline = PipelineConfig(
    pi=BinarySpec(l2=0.01), mu=BinarySpec(l2=0.01),
    h_internal=MulticlassConfig(kind="softmax-linear", epochs=200),
    crossfit_k=1, borrow=False,
)

B = 200
results = bootstrap_estimates(internal, None, pipeline, B=B, seed=2024, level=0.95)

print(f"95% bootstrap t-intervals from B={B} stratified replicates\n")
print(f"{'group':>8} {'method':>18} {'point':>7} {'interval':>18} {'NA':>4} {'trunc':>6}")
for code, label in enumerate(schema.group_labels):
    for method in ("comparison", "proposed-internal"):
        res = results[(code, "cFNR", method)]
        if res.point is None or res.lower is None:
            print(f"{label:>8} {method:>18} {'--':>7} {'(no interval)':>18} "
                  f"{res.na_count:>4}")
            continue
        trunc = ("low" if res.truncated_low else "") + \
                ("high" if res.truncated_high else "")
        print(f"{label:>8} {method:>18} {res.point:7.3f} "
              f"[{res.lower:6.3f}, {res.upper:6.3f}]  {res.na_count:>4} {trunc:>6}")

print("\n'NA' counts replicates whose estimate did not exist; truncation flags")
print("mark intervals that were cut at the [0, 1] boundary.")
