"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes. The statistical criteria use fixed seeds and
configurations sized for a single-core box.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from cfaudit.borrowing import alpha_grid, brier_score, multiclass_auc, select_alpha
from cfaudit.cli import main as cli_main
from cfaudit.dataset import AuditDataset, Characteristic, SchemaSpec
from cfaudit.estimators import NuisanceEstimates, comparison_rate, proposed_rate
from cfaudit.inference import bootstrap_estimates
from cfaudit.models import BinarySpec, MulticlassConfig, fit_logistic, softmax_objective
from cfaudit.pipeline import PipelineConfig
from cfaudit.simlab import (SIM_GROUPS, Population, RiskModel, ScenarioConfig,
                            _Tree, default_coefficients, oracle_error_rates,
                            run_scenario, sim_schema)

PASSED = []


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.time()
    failed = None
    try:
        yield
    except BaseException as err:
        failed = err
        raise
    finally:
        elapsed = time.time() - start
        status = "PASS" if failed is None else "FAIL"
        print(f"{status}: criterion {number} ({description}) "
              f"[{elapsed:.1f}s / budget {budget_seconds}s]")
        if failed is None:
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {budget_seconds}s")


def stump_model():
    """S = 1 exactly when the first covariate is positive."""
    tree = _Tree(feature=np.array([0, -1, -1]), threshold=np.zeros(3),
                 left=np.array([1, 1, 2]), right=np.array([2, 1, 2]),
                 value=np.array([0.5, 0.0, 1.0]))
    return RiskModel(trees=[tree], threshold=0.5, max_depth=1)


def test_criterion_01_ratio_identity_exact_counting():
    with criterion(1, "ratio identity under exact counting", 1.0):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            n = 500
            codes = rng.integers(0, 4, n)
            y0 = rng.integers(0, 2, n).astype(np.int8)
            s_flag = rng.integers(0, 2, n)
            x = np.zeros((n, 10))
            x[:, 0] = 2.0 * s_flag - 1.0  # the stump reproduces s_flag exactly
            pop = Population(x=x, group_codes=codes, y0=y0,
                             y1=y0.copy(), d=np.zeros(n, np.int8), y=y0.copy())
            truth = oracle_error_rates([pop], stump_model())
            s = s_flag.astype(bool)
            t = y0.astype(bool)
            for group in range(len(SIM_GROUPS)):
                in_g = codes == group
                # false negatives: condition on y0 = 1
                if np.any(t & in_g) and np.any(t & ~s):
                    ratio = ((np.sum(in_g & t & ~s) / np.sum(t & ~s))
                             / (np.sum(in_g & t) / np.sum(t)))
                    lhs = truth[(group, "cFNR")]
                    rhs = truth[(None, "cFNR")] * ratio
                    assert abs(lhs - rhs) < 1e-12
                # false positives: condition on y0 = 0
                if np.any(~t & in_g) and np.any(~t & s):
                    ratio = ((np.sum(in_g & ~t & s) / np.sum(~t & s))
                             / (np.sum(in_g & ~t) / np.sum(~t)))
                    lhs = truth[(group, "cFPR")]
                    rhs = truth[(None, "cFPR")] * ratio
                    assert abs(lhs - rhs) < 1e-12


def test_criterion_02_estimator_agreement_clean_data():
    with criterion(2, "proposed equals comparison with exact nuisances", 1.0):
        schema = SchemaSpec(characteristics=(Characteristic("a1", ("0", "1")),
                                             Characteristic("a2", ("0", "1"))),
                            treatment="d", outcome="y", prediction="s",
                            covariates=("x1",))
        groups = range(schema.n_groups)
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            n = 1000
            codes = rng.integers(0, 4, n)
            ds = AuditDataset(schema=schema, group_codes=codes,
                              d=np.zeros(n, dtype=np.int8),
                              y=rng.integers(0, 2, n).astype(np.int8),
                              s=rng.integers(0, 2, n).astype(np.int8),
                              x=rng.standard_normal((n, 1)))
            onehot = np.zeros((n, 4))
            onehot[np.arange(n), codes] = 1.0
            y = ds.y.astype(np.float64)
            nuis = NuisanceEstimates(propensity=np.zeros(n), mu0_s1=y, mu0_s0=y,
                                     mu0_all=y, group_prob=onehot)
            for metric in ("cFPR", "cFNR"):
                ov = comparison_rate(ds, nuis.propensity, None, metric)
                for g in groups:
                    cmp_ = comparison_rate(ds, nuis.propensity, g, metric)
                    prop = proposed_rate(ds, nuis, ov, g)
                    if cmp_.defined:
                        assert prop.defined
                        assert abs(prop.value - cmp_.value) < 1e-10


def test_criterion_03_consistency_randomized_treatment():
    with criterion(3, "consistency at n=50k under randomized treatment", 300.0):
        coeffs = default_coefficients()
        coeffs.treatment[:] = 0.0  # P(D=1) = 1/2 for every unit
        pipe = PipelineConfig(
            pi=BinarySpec(l2=0.01), mu=BinarySpec(l2=0.01),
            h_internal=MulticlassConfig(kind="softmax-linear", epochs=400, lr=2.0),
            borrow=False,
            crossfit_k=1,
        )
        cfg = ScenarioConfig(n_internal=50000, replications=20, seed=301,
                             coefficients=coeffs, pipeline=pipe)
        res = run_scenario(cfg)
        majority = 0
        truth = res.oracle[(majority, "cFNR")]
        values = res.values[:, res.cells.index((majority, "cFNR", "proposed-internal"))]
        assert len(values) == 20
        assert not any(np.isnan(values))
        gap = abs(float(np.mean(values)) - truth)
        print(f"  consistency gap: {gap:.4f} (oracle {truth:.4f})")
        assert gap < 0.02


def test_criterion_04_small_sample_pattern():
    with criterion(4, "small-sample NA and interval-width pattern", 1200.0):
        pipe = PipelineConfig(
            pi=BinarySpec(l2=0.01), mu=BinarySpec(l2=0.01),
            h_internal=MulticlassConfig(kind="softmax-linear", epochs=200, lr=1.0),
            h_external=MulticlassConfig(kind="softmax-linear", epochs=200, lr=1.0),
            crossfit_k=1, alpha_grid_step=0.01,
        )
        minority = 3
        widths = {}
        na = {}
        labels = sim_schema(ScenarioConfig()).group_labels
        comparison_na_by_group = {g: [] for g in range(len(SIM_GROUPS))}
        for n_int in (100, 200, 500):
            cfg = ScenarioConfig(n_internal=n_int, replications=200, seed=401,
                                 pipeline=pipe)
            agg = {(row["group"], row["metric"], row["method"]): row
                   for row in run_scenario(cfg).aggregate()}
            for method in ("comparison", "proposed-internal", "proposed-borrowing"):
                row = agg[(minority, "cFNR", method)]
                na[(n_int, method)] = row["na_count"]
                if row["p97.5"] is not None:
                    widths[(n_int, method)] = row["p97.5"] - row["p2.5"]
            for g in comparison_na_by_group:
                comparison_na_by_group[g].append(
                    agg[(g, "cFNR", "comparison")]["na_count"])
        print(f"  minority cFNR NA counts: {na}")
        print(f"  minority cFNR widths: { {k: round(v, 3) for k, v in widths.items()} }")
        print(f"  comparison NA by group over the sweep: "
              f"{ {labels[g]: v for g, v in comparison_na_by_group.items()} }")
        assert na[(100, "comparison")] >= 1
        for n_int in (100, 200, 500):
            assert na[(n_int, "proposed-internal")] == 0
            assert na[(n_int, "proposed-borrowing")] == 0
            if (n_int, "comparison") in widths:
                assert widths[(n_int, "proposed-internal")] <= widths[(n_int, "comparison")]
                assert widths[(n_int, "proposed-borrowing")] <= widths[(n_int, "comparison")]
        # comparison NA frequency never increases with the sample size
        for g, counts in comparison_na_by_group.items():
            assert counts == sorted(counts, reverse=True), (labels[g], counts)


def test_criterion_05_borrowing_responds_to_agreement():
    with criterion(5, "borrowing weight tracks external agreement", 900.0):
        pipe = PipelineConfig(
            pi=BinarySpec(l2=0.01), mu=BinarySpec(l2=0.01),
            h_internal=MulticlassConfig(kind="mlp-1hidden", hidden=25, decay=1.0,
                                        epochs=120, lr=2.0),
            h_external=MulticlassConfig(kind="mlp-1hidden", hidden=25, decay=1.0,
                                        epochs=120, lr=2.0),
            crossfit_k=1, alpha_grid_step=0.01,
        )
        mean_alpha = {}
        for b in (-1.0, 0.0, 1.0):
            cfg = ScenarioConfig(n_internal=1000, replications=100, seed=501,
                                 b=b, pipeline=pipe)
            mean_alpha[b] = run_scenario(cfg).mean_alpha()
        print(f"  mean alpha by agreement: { {k: round(v, 3) for k, v in mean_alpha.items()} }")
        assert mean_alpha[1.0] >= mean_alpha[-1.0] + 0.2
        assert mean_alpha[1.0] >= mean_alpha[0.0]


def test_criterion_06_alpha_selection_matches_bruteforce():
    with criterion(6, "grid selection matches brute-force oracle", 60.0):
        grid = alpha_grid(0.0001)
        assert len(grid) == 10001
        for seed in range(50):
            rng = np.random.default_rng(6000 + seed)
            n = 30
            labels = rng.integers(0, 4, n)
            h_ext = rng.dirichlet(np.ones(4), size=n)
            h_int = rng.dirichlet(np.ones(4), size=n)
            blend = select_alpha(h_ext, h_int, labels, grid_step=0.0001)
            scores = np.array([s for _, s in blend.metric_curve])
            assert blend.alpha == grid[int(np.argmin(scores))]
            # independent recomputation of a random grid point
            j = int(rng.integers(0, 10001))
            direct = brier_score(grid[j] * h_ext + (1 - grid[j]) * h_int, labels)
            assert direct == scores[j]
        # exact tie: identical inputs select no borrowing
        rng = np.random.default_rng(66)
        h = rng.dirichlet(np.ones(4), size=25)
        labels = rng.integers(0, 4, 25)
        tie = select_alpha(h, h.copy(), labels, grid_step=0.0001)
        assert tie.alpha == 0.0


def test_criterion_07_metric_unit_values():
    with criterion(7, "Brier and AUC unit values", 1.0):
        labels = np.array([0, 1, 2, 3])
        assert brier_score(np.eye(4), labels) == 0.0
        assert brier_score(np.full((4, 4), 0.25), labels) == 0.75
        assert multiclass_auc(np.full((4, 2), 0.5), np.array([0, 1, 0, 1])) == 0.5


def test_criterion_08_logistic_recovery():
    with criterion(8, "logistic coefficient recovery", 10.0):
        for seed in range(10):
            rng = np.random.default_rng(8000 + seed)
            n = 10000
            x = rng.standard_normal((n, 2))
            p = 1.0 / (1.0 + np.exp(-(1.0 + 2.0 * x[:, 0] - x[:, 1])))
            y = (rng.random(n) < p).astype(int)
            model = fit_logistic(x, y)
            assert np.all(np.abs(model.coef - np.array([1.0, 2.0, -1.0])) < 0.1)
            trace = np.asarray(model.ll_trace)
            assert np.all(np.diff(trace) >= 0.0)


def test_criterion_09_multiclass_gradient_check():
    with criterion(9, "analytic gradients match central differences", 10.0):
        rng = np.random.default_rng(900)
        n, p, k, hidden = 30, 3, 4, 5
        xb = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p))])
        y = np.zeros((n, k))
        y[np.arange(n), rng.integers(0, k, n)] = 1.0

        def fd(f, theta, eps=1e-6):
            out = np.zeros_like(theta)
            for i in range(theta.size):
                up, dn = theta.copy(), theta.copy()
                up.flat[i] += eps
                dn.flat[i] -= eps
                out.flat[i] = (f(up) - f(dn)) / (2 * eps)
            return out

        for point in range(10):
            w = rng.standard_normal((p + 1, k))
            _, (grad,) = softmax_objective((w,), xb, y, decay=0.7)
            approx = fd(lambda t: softmax_objective((t.reshape(w.shape),), xb, y, 0.7)[0],
                        w.ravel()).reshape(w.shape)
            denom = np.maximum(np.abs(approx), 1.0)
            assert np.max(np.abs(grad - approx) / denom) < 1e-5

            w1 = 0.5 * rng.standard_normal((p + 1, hidden))
            w2 = 0.5 * rng.standard_normal((hidden + 1, k))
            _, (g1, g2) = softmax_objective((w1, w2), xb, y, decay=0.3)
            n1 = w1.size

            def loss_of(flat):
                a = flat[:n1].reshape(w1.shape)
                b = flat[n1:].reshape(w2.shape)
                return softmax_objective((a, b), xb, y, 0.3)[0]

            approx = fd(loss_of, np.concatenate([w1.ravel(), w2.ravel()]))
            grad = np.concatenate([g1.ravel(), g2.ravel()])
            denom = np.maximum(np.abs(approx), 1.0)
            assert np.max(np.abs(grad - approx) / denom) < 1e-5


def test_criterion_10_bootstrap_determinism_and_truncation():
    with criterion(10, "bootstrap determinism, truncation, degenerate case", 60.0):
        fast = PipelineConfig(
            pi=BinarySpec(l2=0.5), mu=BinarySpec(l2=0.5),
            h_internal=MulticlassConfig(epochs=20, lr=0.5),
            crossfit_k=1, borrow=False,
        )
        rng = np.random.default_rng(10)
        schema = SchemaSpec(characteristics=(Characteristic("a", ("0", "1")),),
                            treatment="d", outcome="y", prediction="s",
                            covariates=("x1",))
        n = 60
        ds = AuditDataset(schema=schema, group_codes=rng.integers(0, 2, n),
                          d=rng.integers(0, 2, n).astype(np.int8),
                          y=rng.integers(0, 2, n).astype(np.int8),
                          s=rng.integers(0, 2, n).astype(np.int8),
                          x=rng.standard_normal((n, 1)))
        out1 = bootstrap_estimates(ds, None, fast, B=16, seed=7)
        out2 = bootstrap_estimates(ds, None, fast, B=16, seed=7)
        for key in out1:
            assert np.array_equal(out1[key].replicates, out2[key].replicates,
                                  equal_nan=True)
            if out1[key].lower is not None:
                assert 0.0 <= out1[key].lower <= out1[key].upper <= 1.0

        # zero-variance degenerate dataset: every row identical
        const_schema = SchemaSpec(characteristics=(Characteristic("a", ("0",)),),
                                  treatment="d", outcome="y", prediction="s",
                                  covariates=("x1",))
        m = 20
        const = AuditDataset(schema=const_schema,
                             group_codes=np.zeros(m, dtype=np.int64),
                             d=np.zeros(m, dtype=np.int8),
                             y=np.ones(m, dtype=np.int8),
                             s=np.zeros(m, dtype=np.int8),
                             x=np.ones((m, 1)))
        res = bootstrap_estimates(const, None, fast, B=8, seed=3)[
            (0, "cFNR", "comparison")]
        assert res.se == 0.0
        assert res.lower == res.upper == res.point == 1.0


def test_criterion_11_end_to_end_reproducibility(tmp_path):
    with criterion(11, "byte-identical simulate re-runs across thread counts", 300.0):
        scenario = {
            "n_internal": 60, "n_external": 150, "n_train": 300,
            "n_validation": 1000, "replications": 2, "seed": 3,
            "pipeline": {
                "pi": {"l2": 0.1}, "mu": {"l2": 0.1},
                "h_internal": {"kind": "softmax-linear", "epochs": 25},
                "h_external": {"kind": "softmax-linear", "epochs": 25},
                "crossfit_k": 1, "alpha_grid_step": 0.05,
            },
        }
        cfgpath = tmp_path / "sim.json"
        with open(cfgpath, "w") as f:
            json.dump({"mode": "simulate", "seed": 9, "out": "first",
                       "scenario": scenario}, f)
        assert cli_main(["--config", str(cfgpath)]) == 0
        first = tmp_path / "first"
        blobs = {name: (first / name).read_bytes()
                 for name in ("replications.csv", "aggregate.csv")}
        # re-run from the manifest with a different thread count
        assert cli_main(["--config", str(first / "manifest.json"),
                         "--out", str(tmp_path / "second"), "--threads", "2"]) == 0
        for name, blob in blobs.items():
            assert (tmp_path / "second" / name).read_bytes() == blob
        # and from the original config at a third thread count
        assert cli_main(["--config", str(cfgpath),
                         "--out", str(tmp_path / "third"), "--threads", "3"]) == 0
        for name, blob in blobs.items():
            assert (tmp_path / "third" / name).read_bytes() == blob
