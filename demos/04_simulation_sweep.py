"""A miniature sample-size sweep with a potential-outcome ground truth.
=======================================================================

The simulation lab draws covariates, group labels, and both potential
outcomes; a shared bagged-tree risk model scores every unit; treatment
responds to the risk flag. True error rates come from exact counting on
a large validation draw, so estimator bias and NA frequency can be
measured. Here: a small sweep over the internal sample size, minority
group focus.

The CLI runs the same machinery from a JSON config (see demo 05).
"""

from dataclasses import replace

from cfaudit.models import BinarySpec, MulticlassConfig
from cfaudit.pipeline import PipelineConfig
from cfaudit.simlab import ScenarioConfig, run_scenario

pipeline = PipelineConfig(
    pi=BinarySpec(l2=0.01), mu=BinarySpec(l2=0.01),
    h_internal=MulticlassConfig(kind="softmax-linear", epochs=200),
    h_external=MulticlassConfig(kind="softmax-linear", epochs=200),
    crossfit_k=1, alpha_grid_step=0.01,
)
base = ScenarioConfig(n_internal=100, replications=40, seed=11, pipeline=pipeline)

minority = 3  # group code of levels (1, 1), the rarest group
print("minority-group cFNR across the sweep (40 replications per size)\n")
print(f"{'n_int':>6} {'method':>18} {'NA':>4} {'mean':>7} {'2.5%':>7} {'97.5%':>7} {'oracle':>7}")
for n_int in (100, 200, 400):
    result = run_scenario(replace(base, n_internal=n_int))
    truth = result.oracle[(minority, "cFNR")]
    for row in result.aggregate():
        if row["group"] != minority or row["metric"] != "cFNR":
            continue
        mean = "   --" if row["mean"] is None else f"{row['mean']:7.3f}"
        lo = "   --" if row["p2.5"] is None else f"{row['p2.5']:7.3f}"
        hi = "   --" if row["p97.5"] is None else f"{row['p97.5']:7.3f}"
        print(f"{n_int:>6} {row['method']:>18} {row['na_count']:>4} "
              f"{mean} {lo} {hi} {truth:7.3f}")
    print()

print("The comparison estimator loses replications (NA) at small n while the")
print("ratio-form estimators remain computable with tighter percentile bands.")
