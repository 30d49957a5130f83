"""Adaptive borrowing from outcome-free external data.
======================================================

Group-membership probabilities P(A = a | X) need neither outcomes nor
predictions, so any covariate-plus-demographics table from the same
population can help estimate them. The blend weight alpha is chosen by
predictive performance (Brier score) on the internal sample: agreeing
external data earns a high alpha, disagreeing data is ignored.

Here we generate external datasets at three agreement levels by scaling
the group-model coefficients with b in {1, 0, -1} and watch alpha react.
"""

import numpy as np

from cfaudit.borrowing import brier_score, select_alpha
from cfaudit.models import (MulticlassConfig, fit_multiclass,
                            predict_group_probs)
from cfaudit.pipeline import fit_external_membership
from cfaudit.simlab import (ScenarioConfig, generate_population, sim_schema,
                            to_audit_dataset, to_external_dataset,
                            train_risk_model)

membership_config = MulticlassConfig(kind="mlp-1hidden", hidden=25, decay=1.0,
                                     epochs=120, lr=2.0, seed=5)

print(f"{'b':>5} {'alpha':>7} {'brier internal':>15} {'brier external':>15}")
for b in (1.0, 0.5, 0.0, -0.5, -1.0):
    cfg = ScenarioConfig(n_internal=1000, replications=1, seed=99, b=b)
    children = np.random.SeedSequence(cfg.seed).spawn(5)
    train = generate_population(cfg, "train", children[0])
    risk_model = train_risk_model(train.x, train.y, seed=children[1])
    schema = sim_schema(cfg)
    internal = to_audit_dataset(
        generate_population(cfg, "internal", children[2], risk_model=risk_model),
        schema)
    external = to_external_dataset(generate_population(cfg, "external", children[3]),
                                   schema)

    # membership models take group codes; column j of h is group code j
    codes = internal.group_codes
    model_int = fit_multiclass(internal.x, codes, membership_config)
    h_int = predict_group_probs(model_int, internal.x, schema.n_groups)
    # the simulated external data shares every covariate with the internal data
    model_ext = fit_external_membership(external, membership_config)
    h_ext = predict_group_probs(model_ext, internal.x, schema.n_groups)

    blend = select_alpha(h_ext, h_int, codes, metric="brier", grid_step=0.01)
    print(f"{b:>5.1f} {blend.alpha:>7.2f} "
          f"{brier_score(h_int, codes):>15.4f} "
          f"{brier_score(h_ext, codes):>15.4f}")

print("\nThe selection curve of the last run can be dumped for plotting:")
for alpha, score in blend.metric_curve[::20]:
    print(f"  alpha={alpha:4.2f}  brier={score:.4f}")
