import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfaudit
from cfaudit.dataset import AuditDataset, Characteristic, SchemaSpec
from cfaudit.models import (PROB_EPS, BinarySpec, ModelError,
                            MulticlassConfig, NuisanceModels, cross_fit, fit_logistic,
                            fit_multiclass,
                            make_crossfit_plan, membership_probs,
                            predict_binary, predict_multiclass, _lbfgs, _softmax,
                            softmax_objective)


def test_logistic_recovers_known_coefficients():
    rng = np.random.default_rng(42)
    n = 10000
    x = rng.standard_normal((n, 2))
    p = 1.0 / (1.0 + np.exp(-(1.0 + 2.0 * x[:, 0] - x[:, 1])))
    y = (rng.random(n) < p).astype(int)
    model = fit_logistic(x, y)
    assert model.converged
    assert np.all(np.abs(model.coef - np.array([1.0, 2.0, -1.0])) < 0.1)


def test_logistic_penalized_ll_nondecreasing():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((500, 3))
    y = (rng.random(500) < 0.5).astype(int)
    for l2 in (0.0, 1.0):
        model = fit_logistic(x, y, l2=l2)
        trace = np.asarray(model.ll_trace)
        assert np.all(np.diff(trace) >= 0.0)


def test_logistic_all_zero_outcome_with_ridge():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1000, 2))
    y = np.zeros(1000, dtype=int)
    model = fit_logistic(x, y, l2=1.0)
    assert model.converged
    assert model.coef[0] < -2.0
    assert np.all(predict_binary(model, x) < 0.01)


def test_logistic_separation_raises():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0, 0, 1, 1])
    with pytest.raises(ModelError, match="coefficients diverging; refit with l2 > 0"):
        fit_logistic(x, y, l2=0.0)


def test_predict_binary_constant_half():
    model = fit_logistic(np.zeros((10, 1)), np.array([0, 1] * 5), l2=1e-9)
    model.coef[:] = 0.0
    preds = predict_binary(model, np.random.default_rng(0).standard_normal((5, 1)))
    assert np.allclose(preds, 0.5)


def test_predict_binary_intercept_only_gives_seventy_percent():
    model = fit_logistic(np.zeros((4, 1)), np.array([0, 1, 0, 1]), l2=1.0)
    model.coef[:] = [0.8473, 0.0]
    preds = predict_binary(model, np.zeros((3, 1)))
    assert np.all(np.abs(preds - 0.7) < 1e-6)


def test_predict_binary_monotone_in_positive_coefficient():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 2))
    p = 1.0 / (1.0 + np.exp(-(0.5 + 1.5 * x[:, 0] + 0.2 * x[:, 1])))
    y = (rng.random(300) < p).astype(int)
    model = fit_logistic(x, y, l2=0.1)
    assert model.coef[1] > 0
    base = predict_binary(model, x)
    bumped = x.copy()
    bumped[:, 0] += 0.5
    assert np.all(predict_binary(model, bumped) >= base)


def test_predict_binary_dimension_mismatch():
    model = fit_logistic(np.random.default_rng(0).standard_normal((50, 2)),
                         np.array([0, 1] * 25), l2=0.5)
    with pytest.raises(ModelError, match="model expects 2 columns, got 5"):
        predict_binary(model, np.zeros((3, 5)))


# --- multiclass ---


def _keys(values):
    return np.asarray(values, dtype=np.int64)


def test_multiclass_separable_accuracy():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((600, 3))
    labels = _keys((x[:, 0] > 0).astype(int))
    model = fit_multiclass(x, labels, MulticlassConfig(epochs=400, lr=1.0))
    probs = predict_multiclass(model, x)
    pred = np.argmax(probs, axis=1)
    assert np.mean(model.classes[pred] == labels) >= 0.99


def test_multiclass_no_signal_collapses_to_base_rates():
    rng = np.random.default_rng(2)
    n = 4000
    x = rng.standard_normal((n, 2))
    labels = _keys(rng.random(n) < 0.4)  # 0 ~ 0.6, 1 ~ 0.4
    model = fit_multiclass(x, labels, MulticlassConfig(epochs=600, lr=1.0))
    probs = predict_multiclass(model, x)
    assert list(model.classes) == [0, 1]
    assert np.all(np.abs(probs[:, 0] - 0.6) < 0.05)


def test_multiclass_deterministic_given_seed():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 3))
    labels = _keys(rng.integers(0, 3, 200))
    cfg = MulticlassConfig(kind="mlp-1hidden", hidden=7, decay=1.0, epochs=50)
    m1 = fit_multiclass(x, labels, cfg, seed=12)
    m2 = fit_multiclass(x, labels, cfg, seed=12)
    for p1, p2 in zip(m1.params, m2.params):
        assert np.array_equal(p1, p2)


def test_multiclass_degenerate_labels():
    x = np.zeros((5, 2))
    with pytest.raises(ModelError, match="need at least two distinct labels"):
        fit_multiclass(x, _keys([1] * 5), MulticlassConfig())
    probs = membership_probs(x, _keys([0] * 5), x, 1, MulticlassConfig())
    assert probs.shape == (5, 1) and np.all(probs == 1.0)


def test_predict_multiclass_zero_weights_uniform():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 2))
    labels = _keys(rng.integers(0, 4, 50))
    model = fit_multiclass(x, labels, MulticlassConfig(epochs=0))
    probs = predict_multiclass(model, x)
    assert np.allclose(probs, 0.25)


def test_predict_multiclass_rows_sum_to_one_fuzz():
    rng = np.random.default_rng(6)
    for trial in range(10):
        n, p, k = rng.integers(5, 40), rng.integers(1, 6), rng.integers(2, 5)
        x = rng.standard_normal((n, p))
        labels = _keys(rng.integers(0, k, n))
        if len(np.unique(labels)) < 2:
            continue
        cfg = MulticlassConfig(kind="mlp-1hidden", hidden=5, decay=0.5, epochs=20)
        probs = predict_multiclass(fit_multiclass(x, labels, cfg, seed=trial), x)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(probs >= 0.0)


def test_membership_classes_are_sorted_codes_at_their_columns():
    # levels not in string order: sorting labels by level strings would put
    # "child" and "mid" before "young"
    schema = SchemaSpec(characteristics=(Characteristic("age", ("young", "mid", "old", "child")),),
                        treatment="d", outcome="y", prediction="s", covariates=("x1", "x2"))
    rng = np.random.default_rng(21)
    x = rng.standard_normal((60, 2))
    codes = rng.choice([3, 0, 2], size=60)  # "mid" absent
    config = MulticlassConfig(epochs=30)
    model = fit_multiclass(x, codes, config)
    assert model.classes.tolist() == [0, 2, 3]
    expected = np.full((60, schema.n_groups), PROB_EPS)
    expected[:, [0, 2, 3]] = np.clip(predict_multiclass(model, x), PROB_EPS, None)
    expected /= expected.sum(axis=1, keepdims=True)
    assert np.array_equal(membership_probs(x, codes, x, schema.n_groups, config), expected)
    with pytest.raises(ModelError, match=re.escape("group codes must lie in [0, 3); got 0..3")):
        membership_probs(x, codes, x, 3, config)

    # one code present: the fallback puts (almost) all mass on it
    probs = membership_probs(x, np.full(60, 2), x, schema.n_groups, config)
    assert np.argmax(probs, axis=1).tolist() == [2] * 60
    assert np.array_equal(probs[0], np.array([PROB_EPS, PROB_EPS, 1.0, PROB_EPS])
                          / (1.0 + 3 * PROB_EPS))
    with pytest.raises(ModelError, match="59 labels for 60 rows"):
        fit_multiclass(x, codes[:-1], MulticlassConfig(epochs=30))


def test_membership_fallback_still_rejects_a_label_count_other_than_the_rows():
    # one code present takes the frequency fallback, which fits nothing, but
    # labels and rows must still pair up
    with pytest.raises(ModelError, match="5 labels for 10 rows"):
        membership_probs(np.zeros((10, 2)), np.zeros(5, int), np.zeros((3, 2)), 4,
                         MulticlassConfig())


def test_membership_probs_predicts_rows_other_than_its_training_rows():
    # the external path: fit on one sample, predict another of other size
    rng = np.random.default_rng(22)
    x, x_eval = rng.standard_normal((80, 3)), rng.standard_normal((35, 3)) + 0.5
    codes = rng.choice([1, 4, 2], size=80)  # codes 0 and 3 absent
    config = MulticlassConfig(kind="mlp-1hidden", hidden=4, epochs=20)
    expected = np.full((35, 5), PROB_EPS)
    expected[:, [1, 2, 4]] = np.clip(predict_multiclass(
        fit_multiclass(x, codes, config, seed=7), x_eval), PROB_EPS, None)
    expected /= expected.sum(axis=1, keepdims=True)
    probs = membership_probs(x, codes, x_eval, 5, config, seed=7)
    assert np.array_equal(probs, expected)
    assert not np.array_equal(probs, membership_probs(x, codes, x, 5, config, seed=7)[:35])
    single = membership_probs(x, np.full(80, 4), x_eval, 5, config)
    assert single.shape == (35, 5) and np.all(np.argmax(single, axis=1) == 4)


def test_the_one_code_fallback_checks_codes_and_loads_no_numpy_ma():
    x = np.zeros((6, 2))
    with pytest.raises(ModelError, match=r"got -1\.\.-1"):
        membership_probs(x, np.full(6, -1), x, 4, MulticlassConfig())
    # a plain np.unique imports numpy.ma, 10-14 ms of every process that calls it
    code = ("import sys, numpy as np\n"
            "from cfaudit.models import MulticlassConfig, membership_probs\n"
            "x = np.zeros((6, 2))\n"
            "before = 'numpy.ma' in sys.modules\n"
            "probs = membership_probs(x, np.full(6, 2), x, 4, MulticlassConfig())\n"
            "print(before, 'numpy.ma' in sys.modules, *probs.argmax(axis=1))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cfaudit.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"] + ["2"] * 6


# Plain-numpy references: axis=1 row reductions and fresh arrays every epoch.
def _reference_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _reference_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _reference_fit(x, labels, cfg, seed):
    xb = np.hstack([np.ones((x.shape[0], 1)), x])
    n = xb.shape[0]
    classes = sorted(set(labels.tolist()))
    y = np.zeros((n, len(classes)))
    y[np.arange(n), [classes.index(g) for g in labels]] = 1.0
    rng = np.random.default_rng(seed)
    if cfg.kind == "softmax-linear":
        w = np.zeros((xb.shape[1], len(classes)))
        for _ in range(cfg.epochs):
            probs = _reference_softmax(xb @ w)
            grad = xb.T @ (probs - y) + 2.0 * cfg.decay * w
            w = w - (cfg.lr / n) * grad
        return (w,)
    limit1 = np.sqrt(6.0 / (xb.shape[1] + cfg.hidden))
    w1 = rng.uniform(-limit1, limit1, size=(xb.shape[1], cfg.hidden))
    limit2 = np.sqrt(6.0 / (cfg.hidden + 1 + len(classes)))
    w2 = rng.uniform(-limit2, limit2, size=(cfg.hidden + 1, len(classes)))
    for _ in range(cfg.epochs):
        hidden = _reference_sigmoid(xb @ w1)
        hb = np.hstack([np.ones((n, 1)), hidden])
        delta_out = _reference_softmax(hb @ w2) - y
        g2 = hb.T @ delta_out + 2.0 * cfg.decay * w2
        delta_hidden = (delta_out @ w2[1:].T) * hidden * (1.0 - hidden)
        g1 = xb.T @ delta_hidden + 2.0 * cfg.decay * w1
        w1 = w1 - (cfg.lr / n) * g1
        w2 = w2 - (cfg.lr / n) * g2
    return (w1, w2)


def _reference_predict(params, x):
    xb = np.hstack([np.ones((x.shape[0], 1)), x])
    if len(params) == 1:
        return _reference_softmax(xb @ params[0])
    w1, w2 = params
    hidden = _reference_sigmoid(xb @ w1)
    return _reference_softmax(np.hstack([np.ones((x.shape[0], 1)), hidden]) @ w2)


def test_softmax_bit_equal_to_row_reductions():
    # k = 1..300 spans all three branches of numpy's pairwise summation
    rng = np.random.default_rng(10)
    for k in range(1, 301):
        z = 3.0 * rng.standard_normal((9, k))
        z[1] = 0.25  # a fully tied row
        z[2, : (k + 1) // 2] = z[2].max()  # tied row maxima
        z[3, 0], z[4] = 700.0, -700.0
        z[5, -1] = -700.0
        if k > 1:
            z[6, k // 2] = -np.inf
        z[7, ::2] = 700.0
        expected = _reference_softmax(z)
        assert np.array_equal(_softmax(z), expected), k
        inplace = z.copy()
        assert np.array_equal(_softmax(inplace, out=inplace), expected), k


def _design(x, labels, classes):
    xb = np.hstack([np.ones((x.shape[0], 1)), x])
    y = np.zeros((x.shape[0], len(classes)))
    y[np.arange(x.shape[0]), np.searchsorted(classes, labels)] = 1.0
    return xb, y


@pytest.mark.parametrize("cfg,k", [
    (MulticlassConfig(epochs=50, lr=0.5), 4),
    (MulticlassConfig(epochs=50, lr=0.5, decay=0.3), 24),
    (MulticlassConfig(kind="mlp-1hidden", hidden=7, decay=1.0, epochs=50), 4),
])
def test_fit_and_predict_multiclass_bit_equal_to_reference(cfg, k):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 5))
    labels = _keys(rng.integers(0, k, 300))
    model = fit_multiclass(x, labels, cfg, seed=3)
    expected = _reference_fit(x, labels, cfg, seed=3)
    new_x = rng.standard_normal((40, 5))
    if cfg.kind == "softmax-linear":
        # L-BFGS: at the optimum, below the reference gradient descent, repeatable
        xb, y = _design(x, labels, model.classes)
        loss, (grad,) = softmax_objective(model.params, xb, y, cfg.decay)
        assert np.max(np.abs(grad)) < 0.01
        assert loss <= softmax_objective(expected, xb, y, cfg.decay)[0]
        assert model.converged and model.objective == loss
        assert np.array_equal(fit_multiclass(x, labels, cfg).params[0], model.params[0])
        assert np.array_equal(predict_multiclass(model, new_x),
                              _reference_predict(model.params, new_x))
        return
    assert len(model.params) == len(expected)
    for got, want in zip(model.params, expected):
        assert np.array_equal(got, want)
    assert np.array_equal(predict_multiclass(model, new_x), _reference_predict(expected, new_x))


def test_mlp_reports_its_epochs_and_final_objective():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((80, 3))
    labels = _keys(rng.integers(0, 3, 80))
    cfg = MulticlassConfig(kind="mlp-1hidden", hidden=4, decay=0.5, epochs=15)
    model = fit_multiclass(x, labels, cfg, seed=2)
    xb, y = _design(x, labels, model.classes)
    assert not model.converged and model.iterations == 15
    assert model.objective == softmax_objective(model.params, xb, y, cfg.decay)[0]


def test_lbfgs_minimises_a_convex_quadratic():
    rng = np.random.default_rng(13)
    q = rng.standard_normal((12, 12))
    a = q @ q.T + 0.5 * np.eye(12)
    b = rng.standard_normal((6, 2))

    def quadratic(w):
        aw = (a @ w.ravel()).reshape(w.shape)
        return 0.5 * float(np.vdot(w, aw)) - float(np.vdot(b, w)), aw - b
    w, f, converged, iterations = _lbfgs(quadratic, np.zeros((6, 2)), 200)
    w_star = np.linalg.solve(a, b.ravel()).reshape(6, 2)
    assert converged and 0 < iterations < 200
    assert np.max(np.abs(w - w_star)) < 1e-4
    assert f == quadratic(w)[0]


def test_lbfgs_iteration_cap_is_not_convergence():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((300, 5))
    labels = _keys(rng.integers(0, 24, 300))
    model = fit_multiclass(x, labels, MulticlassConfig(epochs=3))
    assert not model.converged and model.iterations == 3
    full = fit_multiclass(x, labels, MulticlassConfig())
    assert full.converged and full.objective < model.objective


def _finite_difference(f, theta, eps=1e-6):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up.flat[i] += eps
        dn.flat[i] -= eps
        grad.flat[i] = (f(up) - f(dn)) / (2 * eps)
    return grad


@pytest.mark.parametrize("seed,n,hidden,k,scale,decay", [
    (8, 40, 0, 4, 1.0, 0.7),  # (w,): softmax-linear
    (9, 25, 6, 3, 0.5, 0.3),  # (w1, w2): one hidden layer
], ids=["softmax-linear", "mlp-1hidden"])
def test_objective_gradient_matches_central_differences(seed, n, hidden, k, scale, decay):
    rng = np.random.default_rng(seed)
    p = 3
    xb = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p))])
    y = np.zeros((n, k))
    y[np.arange(n), rng.integers(0, k, n)] = 1.0
    shapes = [(p + 1, hidden), (hidden + 1, k)] if hidden else [(p + 1, k)]
    ends = np.cumsum([a * b for a, b in shapes])

    def loss_of(flat):
        params = tuple(w.reshape(shape) for w, shape in zip(np.split(flat, ends[:-1]), shapes))
        val, _ = softmax_objective(params, xb, y, decay)
        return val

    for point in range(10):
        params = tuple(scale * rng.standard_normal(shape) for shape in shapes)
        _, grads = softmax_objective(params, xb, y, decay)
        approx = _finite_difference(loss_of, np.concatenate([w.ravel() for w in params]))
        grad = np.concatenate([g.ravel() for g in grads])
        denom = np.maximum(np.abs(approx), 1.0)
        assert np.max(np.abs(grad - approx) / denom) < 1e-5


# --- cross-fitting ---


def _toy_dataset(n, seed=0, p=2):
    rng = np.random.default_rng(seed)
    schema = SchemaSpec(characteristics=(Characteristic("a", ("0", "1")),),
                        treatment="d", outcome="y", prediction="s",
                        covariates=tuple(f"x{i}" for i in range(p)))
    return AuditDataset(
        schema=schema,
        group_codes=rng.integers(0, 2, n),
        d=rng.integers(0, 2, n).astype(np.int8),
        y=rng.integers(0, 2, n).astype(np.int8),
        s=rng.integers(0, 2, n).astype(np.int8),
        x=rng.standard_normal((n, p)),
    )


def _models(k):
    return NuisanceModels(pi=BinarySpec(l2=0.1), mu=BinarySpec(l2=0.1),
                          h_internal=MulticlassConfig(epochs=30, lr=0.5), crossfit_k=k)


def test_crossfit_fold_sizes_balanced():
    ds = _toy_dataset(1000, seed=1)
    fold = make_crossfit_plan(ds, 10, seed=5)
    sizes = np.bincount(fold, minlength=10)
    assert np.all(sizes == 100)


def test_crossfit_k1_equals_full_fit():
    ds = _toy_dataset(300, seed=2)
    nuis = cross_fit(ds, _models(1), seed=3)
    from cfaudit.models import _propensity_design
    design = _propensity_design(ds)
    full = fit_logistic(design, ds.d, l2=_models(1).pi.l2)
    assert np.allclose(nuis.propensity, predict_binary(full, design))


def test_crossfit_heldout_rows_unaffected_by_own_outcome():
    ds = _toy_dataset(80, seed=3)
    nuis = cross_fit(ds, _models(4), seed=9)
    perturbed = AuditDataset(schema=ds.schema, group_codes=ds.group_codes.copy(),
                             d=ds.d.copy(), y=ds.y.copy(), s=ds.s.copy(), x=ds.x.copy())
    i = 17
    perturbed.d[i] = 1 - perturbed.d[i]
    perturbed.y[i] = 1 - perturbed.y[i]
    # both datasets draw the same folds from seed 9, so row i is held out of the same fold
    assert np.array_equal(make_crossfit_plan(ds, 4, seed=9),
                          make_crossfit_plan(perturbed, 4, seed=9))
    nuis2 = cross_fit(perturbed, _models(4), seed=9)
    assert nuis.propensity[i] == nuis2.propensity[i]
    assert nuis.mu0_all[i] == nuis2.mu0_all[i]
    assert nuis.mu0_s0[i] == nuis2.mu0_s0[i]
    assert nuis.mu0_s1[i] == nuis2.mu0_s1[i]


def test_crossfit_k2_hand_traced():
    ds = _toy_dataset(10, seed=7)
    fold_ids = make_crossfit_plan(ds, 2, seed=4)
    nuis = cross_fit(ds, _models(2), seed=4)
    from cfaudit.models import _propensity_design
    design = _propensity_design(ds)
    for fold in (0, 1):
        hold = np.flatnonzero(fold_ids == fold)
        train = np.flatnonzero(fold_ids != fold)
        manual = fit_logistic(design[train], ds.d[train], l2=_models(2).pi.l2)
        assert np.allclose(nuis.propensity[hold], predict_binary(manual, design[hold]))


def _propensity_design_loop(ds):
    # the per-code loop that _propensity_design replaced, kept as its reference
    n_groups = ds.schema.n_groups
    onehot = np.zeros((ds.n, n_groups - 1))
    for code in range(1, n_groups):
        onehot[:, code - 1] = ds.group_codes == code
    return np.hstack([onehot, ds.x, ds.s[:, None].astype(np.float64)])


@pytest.mark.parametrize("k", [1, 2, 6])
def test_propensity_design_bit_equal_to_loop_reference(k):
    from cfaudit.models import _propensity_design
    rng = np.random.default_rng(30 + k)
    schema = SchemaSpec(characteristics=(Characteristic("a", tuple(map(str, range(k)))),),
                        treatment="d", outcome="y", prediction="s", covariates=("x0", "x1"))
    # with six groups, code 2 is empty and code 4 a single row
    codes = rng.choice([c for c in range(k) if c not in (2, 4)], size=40)
    if k > 4:
        codes[17] = 4
    ds = AuditDataset(schema=schema, group_codes=codes,
                      d=rng.integers(0, 2, 40).astype(np.int8),
                      y=rng.integers(0, 2, 40).astype(np.int8),
                      s=rng.integers(0, 2, 40).astype(np.int8),
                      x=rng.standard_normal((40, 2)))
    design = _propensity_design(ds)
    assert design.shape == (40, k - 1 + 3)
    assert np.array_equal(design, _propensity_design_loop(ds))


def test_crossfit_reproducible():
    ds = _toy_dataset(120, seed=8)
    a = cross_fit(ds, _models(3), seed=11)
    b = cross_fit(ds, _models(3), seed=11)
    assert np.array_equal(a.propensity, b.propensity)
    assert np.array_equal(a.group_prob, b.group_prob)


def _cross_fit_two_branch(ds, models, seed):
    # the (all rows, all rows) branch and the fold loop that cross_fit's one
    # loop over (held-out rows, training rows) pairs replaced, kept as its reference
    from cfaudit.models import _fit_outcome_models, _propensity_design
    pi_design = _propensity_design(ds)
    n = ds.n
    out = {name: np.empty(n) for name in ("propensity", "mu0_s1", "mu0_s0", "mu0_all")}
    if models.crossfit_k == 1:
        all_idx = np.arange(n)
        pi_model = fit_logistic(pi_design, ds.d, l2=models.pi.l2)
        out["propensity"][:] = predict_binary(pi_model, pi_design)
        mu_by_s, mu_star = _fit_outcome_models(ds, all_idx, models.mu)
        out["mu0_s0"][:] = predict_binary(mu_by_s[0], ds.x)
        out["mu0_s1"][:] = predict_binary(mu_by_s[1], ds.x)
        out["mu0_all"][:] = predict_binary(mu_star, ds.x)
    else:
        fold = make_crossfit_plan(ds, models.crossfit_k, seed)
        for f in range(models.crossfit_k):
            hold = np.flatnonzero(fold == f)
            train = np.flatnonzero(fold != f)
            pi_model = fit_logistic(pi_design[train], ds.d[train], l2=models.pi.l2)
            out["propensity"][hold] = predict_binary(pi_model, pi_design[hold])
            mu_by_s, mu_star = _fit_outcome_models(ds, train, models.mu)
            out["mu0_s0"][hold] = predict_binary(mu_by_s[0], ds.x[hold])
            out["mu0_s1"][hold] = predict_binary(mu_by_s[1], ds.x[hold])
            out["mu0_all"][hold] = predict_binary(mu_star, ds.x[hold])
    return out


def _audit_wide_internal(tmp_path, seed):
    """The internal dataset of the audit-wide benchmark workload (24 groups)."""
    import importlib.util
    from pathlib import Path

    from cfaudit.dataset import load_internal

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write_inputs("audit-wide", seed, tmp_path)
    return load_internal(tmp_path / "internal.csv", SchemaSpec.from_json(tmp_path / "schema.json"))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_crossfit_bit_equal_to_two_branch_reference(tmp_path, k):
    ds = _audit_wide_internal(tmp_path, seed=1)
    models = NuisanceModels(pi=BinarySpec(l2=0.01), mu=BinarySpec(l2=0.01),
                            h_internal=MulticlassConfig(epochs=2), crossfit_k=k)
    nuis = cross_fit(ds, models, seed=17)
    for name, want in _cross_fit_two_branch(ds, models, seed=17).items():
        assert np.array_equal(getattr(nuis, name), want), name


def test_crossfit_infeasible_folds():
    n = 8
    schema = SchemaSpec(characteristics=(Characteristic("a", ("0",)),),
                        treatment="d", outcome="y", prediction="s", covariates=("x0",))
    ds = AuditDataset(
        schema=schema,
        group_codes=np.zeros(n, dtype=np.int64),
        d=np.array([0, 1] * 4, dtype=np.int8),
        y=np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.int8),  # single untreated positive
        s=np.zeros(n, dtype=np.int8),
        x=np.zeros((n, 1)),
    )
    with pytest.raises(ModelError, match="no feasible 4-fold split after 10 draws"):
        make_crossfit_plan(ds, 4, seed=0)
