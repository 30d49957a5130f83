import itertools
import tracemalloc

import numpy as np
import pytest

from cfaudit import models, pipeline
from cfaudit.models import BinarySpec, ModelError, MulticlassConfig
from cfaudit.pipeline import PipelineConfig
from cfaudit.simlab import (DRAW_ROWS, INTERACTION_PAIRS, INTERACTION_TRIPLES,
                            SIM_GROUPS, WALK_CELLS, DegenerateOutcome,
                            Population, RiskModel, ScenarioConfig,
                            _grow_tree, _sample_categorical, _Tree,
                            default_coefficients,
                            generate_population, oracle_error_rates,
                            run_scenario, train_risk_model)


def small_cfg(**kw):
    base = dict(
        n_internal=80, n_external=300, n_train=400, n_validation=3000,
        replications=2, seed=123,
        pipeline=PipelineConfig(
            pi=BinarySpec(l2=0.1), mu=BinarySpec(l2=0.1),
            h_internal=MulticlassConfig(epochs=30, lr=0.5),
            h_external=MulticlassConfig(epochs=30, lr=0.5),
            crossfit_k=1, alpha_grid_step=0.05,
        ),
    )
    base.update(kw)
    return ScenarioConfig(**base)


def constant_model(value):
    """Risk model from a single leaf so S is constant."""
    tree = _Tree(feature=np.array([-1]), threshold=np.array([0.0]),
                 left=np.array([0]), right=np.array([0]),
                 value=np.array([float(value)]))
    return RiskModel(trees=[tree], threshold=0.5, max_depth=1)


def stump_on_first_covariate():
    """S = 1 exactly when x1 > 0."""
    tree = _Tree(feature=np.array([0, -1, -1]), threshold=np.array([0.0, 0.0, 0.0]),
                 left=np.array([1, 1, 2]), right=np.array([2, 1, 2]),
                 value=np.array([0.5, 0.0, 1.0]))
    return RiskModel(trees=[tree], threshold=0.5, max_depth=1)


def test_generate_population_deterministic():
    cfg = small_cfg()
    a = generate_population(cfg, "external", 7)
    b = generate_population(cfg, "external", 7)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.group_codes, b.group_codes)


def test_group_proportions_majority_modal_minority_rarest():
    cfg = ScenarioConfig(n_validation=50000, replications=1, seed=0)
    pop = generate_population(cfg, "validation", 42)
    shares = np.bincount(pop.group_codes, minlength=4) / pop.n
    assert np.argmax(shares) == 0  # (0,0) majority
    assert np.argmin(shares) == 3  # (1,1) minority
    assert shares[0] > 0.45
    assert shares[3] < 0.10


def test_external_b_one_matches_internal_group_distribution():
    cfg = small_cfg(n_external=20000, b=1.0)
    ext = generate_population(cfg, "external", 3)
    val = generate_population(ScenarioConfig(n_validation=20000, replications=1, seed=0),
                              "validation", 3)
    ext_shares = np.bincount(ext.group_codes, minlength=4) / ext.n
    val_shares = np.bincount(val.group_codes, minlength=4) / val.n
    assert np.all(np.abs(ext_shares - val_shares) < 0.02)


def test_external_population_has_no_outcome_columns():
    pop = generate_population(small_cfg(), "external", 1)
    assert pop.y0 is None and pop.y1 is None and pop.d is None
    assert pop.y is None and pop.s is None


def test_potential_outcome_consistency_internal():
    cfg = small_cfg(n_internal=500)
    train = generate_population(cfg, "train", 11)
    model = train_risk_model(train.x, train.y, n_trees=20, seed=5)
    pop = generate_population(cfg, "internal", 12, risk_model=model)
    assert np.array_equal(pop.y, pop.d * pop.y1 + (1 - pop.d) * pop.y0)


def test_risk_model_deterministic_and_threshold():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((600, 5))
    p = 1.0 / (1.0 + np.exp(-(x[:, 0] + 0.5 * x[:, 1] - 1.0)))
    y = (rng.random(600) < p).astype(np.int8)
    m1 = train_risk_model(x, y, n_trees=30, seed=9, positive_rate=0.2)
    m2 = train_risk_model(x, y, n_trees=30, seed=9, positive_rate=0.2)
    probe = rng.standard_normal((100, 5))
    assert np.array_equal(m1.predict(probe), m2.predict(probe))
    rate = float(m1.predict(x).mean())
    assert abs(rate - 0.2) <= 1.0 / 600 + 1e-12


def test_risk_model_learns_separable_signal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((800, 4))
    y = (x[:, 0] > 0).astype(np.int8)
    model = train_risk_model(x, y, n_trees=30, max_depth=3, seed=2, positive_rate=0.5)
    x_new = rng.standard_normal((500, 4))
    acc = np.mean(model.predict(x_new) == (x_new[:, 0] > 0))
    assert acc >= 0.95


def test_risk_model_degenerate_outcome():
    with pytest.raises(DegenerateOutcome):
        train_risk_model(np.zeros((10, 2)), np.ones(10), n_trees=5, seed=0)


def test_oracle_constant_predictions():
    cfg = small_cfg(n_validation=2000)
    pop = generate_population(cfg, "validation", 8)
    always = oracle_error_rates(pop, constant_model(1.0))
    never = oracle_error_rates(pop, constant_model(0.0))
    for g in list(range(len(SIM_GROUPS))) + [None]:
        counts = np.bincount(pop.group_codes, minlength=4)
        if g is not None and counts[g] == 0:
            continue
        assert always[(g, "cFNR")] == 0.0
        assert always[(g, "cFPR")] == 1.0
        assert never[(g, "cFNR")] == 1.0
        assert never[(g, "cFPR")] == 0.0


def test_oracle_hand_built_twelve_records():
    # x1 sign drives S through the stump; rates tallied by hand
    x = np.zeros((12, 10))
    x[:, 0] = [1, 1, 1, -1, -1, -1, 1, 1, -1, -1, 1, -1]
    y0 = np.array([1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0], dtype=np.int8)
    codes = np.array([0, 0, 0, 0, 0, 0, 3, 3, 3, 3, 1, 1])
    pop = Population(x=x, group_codes=codes, y0=y0,
                     y1=y0.copy(), d=np.zeros(12, np.int8), y=y0.copy())
    truth = oracle_error_rates(pop, stump_on_first_covariate())
    maj = 0
    minority = 3
    # majority: y0=1 rows have s = 1,1,0 -> cFNR = 1/3; y0=0 rows s = 1,0,0 -> cFPR = 1/3
    assert truth[(maj, "cFNR")] == pytest.approx(1 / 3)
    assert truth[(maj, "cFPR")] == pytest.approx(1 / 3)
    # minority: y0=1 rows s = 1,0,0 -> cFNR = 2/3; y0=0 row s = 1 -> cFPR = 1
    assert truth[(minority, "cFNR")] == pytest.approx(2 / 3)
    assert truth[(minority, "cFPR")] == pytest.approx(1.0)
    # group (0,1): y0 = 0,0 with s = 1,0 -> cFPR = 1/2, cFNR undefined
    assert truth[(1, "cFPR")] == pytest.approx(0.5)
    assert np.isnan(truth[(1, "cFNR")])
    # overall: 6 positives with s = 1,1,0,1,0,0 -> cFNR = 3/6
    assert truth[(None, "cFNR")] == pytest.approx(0.5)


def test_oracle_satisfies_ratio_identity_and_decomposition():
    cfg = small_cfg(n_validation=4000)
    pop = generate_population(cfg, "validation", 21)
    model = stump_on_first_covariate()
    truth = oracle_error_rates(pop, model)
    s = model.predict(pop.x).astype(bool)
    y0 = pop.y0.astype(bool)
    # identity: group rate equals overall rate times the membership ratio
    for g in range(len(SIM_GROUPS)):
        in_g = pop.group_codes == g
        if not np.any(y0 & in_g) or not np.any(y0 & ~s):
            continue
        ratio = (np.sum(in_g & y0 & ~s) / np.sum(y0 & ~s)) / (np.sum(in_g & y0) / np.sum(y0))
        assert truth[(g, "cFNR")] == pytest.approx(truth[(None, "cFNR")] * ratio, abs=1e-12)
    # decomposition: group rates average back to the overall rate
    total = 0.0
    for g in range(len(SIM_GROUPS)):
        in_g = pop.group_codes == g
        if np.any(y0 & in_g):
            total += (np.sum(in_g & y0) / np.sum(y0)) * truth[(g, "cFNR")]
    assert total == pytest.approx(truth[(None, "cFNR")], abs=1e-12)


def test_run_scenario_single_replication_aggregates_match():
    cfg = small_cfg(replications=1)
    res = run_scenario(cfg)
    agg = res.aggregate()
    assert res.values.shape == (1, len(res.cells)) and len(agg) == len(res.cells)
    for row, cell, value in zip(agg, res.cells, res.values[0]):
        assert (row["group"], row["metric"], row["method"]) == cell
        if not np.isnan(value):
            assert row["mean"] == pytest.approx(value)
            assert row["p2.5"] == pytest.approx(value)
        else:
            assert row["na_count"] == 1


def test_run_scenario_reproducible():
    cfg = small_cfg()
    r1 = run_scenario(cfg)
    r2 = run_scenario(cfg)
    assert r1.cells == r2.cells
    assert np.array_equal(r1.values, r2.values, equal_nan=True)
    assert r1.alphas == r2.alphas


def test_run_scenario_alpha_recorded_when_borrowing():
    cfg = small_cfg()
    res = run_scenario(cfg)
    assert len(res.alphas) == cfg.replications
    assert all(not np.isnan(a) for a in res.alphas)
    borrow_cells = [cell for cell in res.cells if cell[2] == "proposed-borrowing"]
    assert borrow_cells


def test_replication_na_only_for_model_errors(monkeypatch):
    def failing_fit(error):
        def fit(*args, **kwargs):
            raise error("membership fit failed")
        return fit

    cfg = small_cfg(replications=1)
    monkeypatch.setattr(models, "fit_multiclass", failing_fit(ModelError))
    res = run_scenario(cfg)
    assert res.values.size and np.all(np.isnan(res.values))
    assert np.isnan(res.alphas[0])
    monkeypatch.setattr(models, "fit_multiclass", failing_fit(TypeError))
    with pytest.raises(TypeError):
        run_scenario(cfg)


def test_run_scenario_without_borrowing_skips_method():
    pipe = PipelineConfig(
        pi=BinarySpec(l2=0.1), mu=BinarySpec(l2=0.1),
        h_internal=MulticlassConfig(epochs=20, lr=0.5),
        borrow=False, crossfit_k=1,
    )
    cfg = small_cfg(pipeline=pipe)
    res = run_scenario(cfg)
    assert all(method != "proposed-borrowing" for _, _, method in res.cells)
    assert all(np.isnan(a) for a in res.alphas)


def test_replication_with_other_cells_than_expected_raises(monkeypatch):
    real_run = pipeline.run_pipeline

    def without_proposed(*args, **kwargs):
        result = real_run(*args, **kwargs)
        result.report.entries = [e for e in result.report.entries
                                 if e.method != "proposed-internal"]
        return result

    monkeypatch.setattr(pipeline, "run_pipeline", without_proposed)
    with pytest.raises(RuntimeError, match="differ"):
        run_scenario(small_cfg(replications=1))


def test_default_coefficients_shapes_with_interactions():
    co = default_coefficients(10, interactions=True)
    assert co.group.shape == (4, 1 + 10 + 10)
    assert co.y0.shape == (1 + 10 + 2 + 10,)
    assert co.treatment.shape == (1 + 10 + 3 + 10,)
    cfg = ScenarioConfig(n_internal=50, replications=1, seed=1, interactions=True)
    pop = generate_population(cfg, "internal", 2,
                              risk_model=constant_model(1.0))
    assert pop.n == 50


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(b=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(n_internal=0)


# ---------------------------------------------------------------------------
# the row-block draws against a reference copy of the full-height generator


def reference_design(cfg, x, extra_cols=()):
    n = x.shape[0]
    x_inf = x[:, : cfg.p_informative]
    parts = [np.ones((n, 1)), x_inf]
    parts.extend(np.asarray(c, dtype=np.float64).reshape(n, 1) for c in extra_cols)
    if cfg.interactions:
        cols = [x_inf[:, i] * x_inf[:, j] for i, j in INTERACTION_PAIRS]
        cols += [x_inf[:, i] * x_inf[:, j] * x_inf[:, k] for i, j, k in INTERACTION_TRIPLES]
        parts.append(np.column_stack(cols))
    return np.hstack(parts)


def reference_generate_population(cfg, role, seed, risk_model=None):
    """Every design matrix at full height, y1 drawn for every role but the
    external one, and codes from all K cumulative columns."""
    n = {"train": cfg.n_train, "validation": cfg.n_validation,
         "internal": cfg.n_internal, "external": cfg.n_external}[role]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cfg.p_informative + cfg.p_noise))
    group_coef = cfg.coefficients.group * cfg.b if role == "external" else cfg.coefficients.group
    probs = models._softmax(reference_design(cfg, x) @ group_coef.T)
    codes = np.sum(rng.random(n)[:, None] > np.cumsum(probs, axis=1), axis=1)
    if role == "external":
        return Population(x=x, group_codes=codes)
    a1 = np.array([int(g.levels[0]) for g in SIM_GROUPS])[codes]
    a2 = np.array([int(g.levels[1]) for g in SIM_GROUPS])[codes]
    y_design = reference_design(cfg, x, extra_cols=(a1, a2))
    y0 = (rng.random(n) < models.sigmoid(y_design @ cfg.coefficients.y0)).astype(np.int8)
    y1 = (rng.random(n) < models.sigmoid(y_design @ cfg.coefficients.y1)).astype(np.int8)
    if role == "internal":
        s = risk_model.predict(x)
        d_design = reference_design(cfg, x, extra_cols=(a1, a2, s))
        d = (rng.random(n) < models.sigmoid(d_design @ cfg.coefficients.treatment)
             ).astype(np.int8)
        y = (d * y1 + (1 - d) * y0).astype(np.int8)
        return Population(x=x, group_codes=codes, y0=y0, y1=y1, d=d, y=y, s=s)
    d = np.zeros(n, dtype=np.int8)
    s = risk_model.predict(x) if risk_model is not None else None
    return Population(x=x, group_codes=codes, y0=y0, y1=y1, d=d, y=y0.copy(), s=s)


def assert_same_population(pop: Population, ref: Population, role):
    for name in ("x", "group_codes", "y0", "y1", "d", "y", "s"):
        got, want = getattr(pop, name), getattr(ref, name)
        if name == "y1" and role in ("train", "validation"):
            assert got is None
        elif want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("n", [1, DRAW_ROWS - 1, DRAW_ROWS, DRAW_ROWS + 1, 3 * DRAW_ROWS + 7])
@pytest.mark.parametrize("p_noise,interactions", [(0, False), (0, True), (4, False), (4, True)])
def test_row_block_draws_match_the_full_height_reference(n, p_noise, interactions):
    model = stump_on_first_covariate()
    for seed, b in itertools.product(range(3), (-1.0, 0.3, 1.0)):
        cfg = ScenarioConfig(n_internal=n, n_external=n, n_train=n, n_validation=n, b=b,
                             p_noise=p_noise, interactions=interactions, replications=1)
        for role in ("train", "validation", "internal", "external"):
            risk_model = model if role == "internal" else None
            assert_same_population(generate_population(cfg, role, seed, risk_model),
                                   reference_generate_population(cfg, role, seed, risk_model),
                                   role)


def test_validation_draw_memory_is_bounded_by_the_row_blocks():
    cfg = ScenarioConfig(n_validation=50_000, replications=1)
    tracemalloc.start()
    try:
        generate_population(cfg, "validation", 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the outputs take 4.4 MiB (x alone 3.8 MiB); full-height design
    # matrices, probabilities and uniforms took the peak to 16 MiB
    assert peak < 8 * 2**20


class TopUniform:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_categorical_code_stays_below_k_when_a_row_sums_under_its_uniform():
    probs = np.array([[0.25, 0.25, 0.25, 0.25 - 2.0 ** -52],  # sums to 1 - 2**-52
                      [0.1, 0.2, 0.3, 0.4]])
    assert probs[0].cumsum()[-1] < np.nextafter(1.0, 0.0)
    assert _sample_categorical(probs, TopUniform()).tolist() == [3, 3]


# ---------------------------------------------------------------------------
# the risk model against reference copies of the per-node tree code: a stable
# argsort of every feature at every node, and one masked walk per tree


def reference_best_split(x, y):
    n = len(y)
    best_score, best_feature, best_threshold = np.inf, None, None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if cut.size == 0:
            continue
        n_left = (cut + 1).astype(np.float64)
        n_right = n - n_left
        pos_left = np.cumsum(ys)[cut].astype(np.float64)
        pos_right = float(ys.sum()) - pos_left
        gini_left = 1.0 - (pos_left / n_left) ** 2 - (1.0 - pos_left / n_left) ** 2
        gini_right = 1.0 - (pos_right / n_right) ** 2 - (1.0 - pos_right / n_right) ** 2
        score = (n_left * gini_left + n_right * gini_right) / n
        m = int(np.argmin(score))
        if score[m] < best_score:
            best_score = float(score[m])
            best_feature = j
            best_threshold = 0.5 * (xs[cut[m]] + xs[cut[m] + 1])
    return best_feature, best_threshold


def reference_grow_tree(x, y, max_depth) -> _Tree:
    feature, threshold, left, right, value = [], [], [], [], []

    def rec(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(node)
        right.append(node)
        value.append(float(y[idx].mean()))
        if depth < max_depth and len(idx) >= 2 and y[idx].min() != y[idx].max():
            f, t = reference_best_split(x[idx], y[idx])
            if f is not None:
                mask = x[idx, f] <= t
                feature[node] = f
                threshold[node] = float(t)
                left[node] = rec(idx[mask], depth + 1)
                right[node] = rec(idx[~mask], depth + 1)
        return node

    rec(np.arange(len(y)), 0)
    return _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def reference_tree_scores(tree: _Tree, x, max_depth) -> np.ndarray:
    node = np.zeros(x.shape[0], dtype=np.int64)
    rows = np.arange(x.shape[0])
    for _ in range(max_depth):
        f = tree.feature[node]
        internal = f >= 0
        if not internal.any():
            break
        go_left = np.zeros(len(node), dtype=bool)
        go_left[internal] = x[rows[internal], f[internal]] <= tree.threshold[node[internal]]
        node = np.where(internal, np.where(go_left, tree.left[node], tree.right[node]), node)
    return tree.value[node]


def reference_predict_score(model: RiskModel, x) -> np.ndarray:
    total = np.zeros(x.shape[0])
    for tree in model.trees:
        total += reference_tree_scores(tree, x, model.max_depth)
    return total / len(model.trees)


def assert_same_tree(tree: _Tree, ref: _Tree):
    for name in ("feature", "threshold", "left", "right", "value"):
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def tree_data(case, seed):
    """Training rows (x, y) for one kind of tie structure or signal."""
    kw = {"p_noise": 4} if case == "noise" else {}
    if case == "interactions":
        kw = {"interactions": True}
    cfg = ScenarioConfig(n_train=300, replications=1, seed=seed, **kw)
    pop = generate_population(cfg, "train", seed)
    x, y = pop.x, pop.y
    if case == "rounded":  # few distinct values per feature: ties at every node
        x = np.round(x, 0)
    elif case == "duplicated":  # every row three times before bagging
        x, y = np.repeat(x, 3, axis=0), np.repeat(y, 3)
    elif case == "constant":
        x = x.copy()
        x[:, 2] = 0.7
    return x, y


@pytest.mark.parametrize("case", ["plain", "rounded", "duplicated", "constant",
                                  "noise", "interactions"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_risk_model_trees_and_scores_match_the_per_node_reference(case, seed):
    x, y = tree_data(case, seed)
    model = train_risk_model(x, y, n_trees=6, max_depth=4, seed=seed)
    root = np.random.SeedSequence(seed)
    for tree, child in zip(model.trees, root.spawn(6)):
        boot = np.random.default_rng(child).integers(0, len(y), size=len(y))
        assert_same_tree(tree, reference_grow_tree(x[boot], y[boot], 4))
    probe = np.vstack([x, np.random.default_rng(seed).standard_normal((200, x.shape[1]))])
    assert np.array_equal(model.predict_score(probe), reference_predict_score(model, probe))


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5, 6])
def test_grow_tree_matches_the_reference_at_every_depth(max_depth):
    for case in ("plain", "rounded"):
        x, y = tree_data(case, 7)
        boot = np.random.default_rng(max_depth).integers(0, len(y), size=len(y))
        tree = _grow_tree(x[boot], y[boot], max_depth)
        assert_same_tree(tree, reference_grow_tree(x[boot], y[boot], max_depth))
        model = RiskModel(trees=[tree, tree], threshold=0.5, max_depth=max_depth)
        assert np.array_equal(model.predict_score(x), reference_predict_score(model, x))


def test_grow_tree_on_pure_constant_and_tiny_samples():
    x = np.random.default_rng(0).standard_normal((5, 3))
    for xs, ys in ((x, np.ones(5, np.int8)), (np.zeros((5, 3)), np.array([0, 1, 0, 1, 1])),
                   (x[:1], np.array([1])), (x[:2], np.array([0, 1]))):
        assert_same_tree(_grow_tree(xs, ys, 3), reference_grow_tree(xs, ys, 3))


def test_hand_built_trees_score_as_the_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((500, 10))
    x[:7, 0] = 0.0  # on the stump's threshold
    for model in (constant_model(1.0), constant_model(0.0), stump_on_first_covariate()):
        assert np.array_equal(model.predict_score(x), reference_predict_score(model, x))
    both = RiskModel(trees=constant_model(0.25).trees + stump_on_first_covariate().trees,
                     threshold=0.5, max_depth=3)
    assert np.array_equal(both.predict_score(x), reference_predict_score(both, x))


def test_scoring_memory_is_bounded_by_the_walk_blocks():
    x, y = tree_data("plain", 0)
    model = train_risk_model(x, y, n_trees=100, seed=0)
    rows = np.random.default_rng(0).standard_normal((50_000, x.shape[1]))
    tracemalloc.start()
    try:
        model.predict_score(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (trees, rows) array of the whole input would take 100 * 50,000 * 8
    # bytes = 38 MiB; the walk holds a few block arrays of WALK_CELLS cells
    # plus the 0.4 MiB output
    assert peak < 16 * WALK_CELLS * 8


@pytest.mark.parametrize("kwargs,named", [
    ({"n_trees": 0}, "n_trees"), ({"n_trees": -3}, "n_trees"),
    ({"max_depth": 0}, "max_depth"), ({"positive_rate": 1.5}, "positive_rate"),
    ({"positive_rate": 0.0}, "positive_rate"),
])
def test_risk_model_settings_out_of_range_are_rejected(kwargs, named):
    x, y = tree_data("plain", 0)
    with pytest.raises(ValueError, match=named):
        train_risk_model(x, y, **kwargs)
    with pytest.raises(ValueError, match=named):
        ScenarioConfig(**kwargs)


def test_risk_model_rejects_a_non_binary_outcome():
    x, y = tree_data("plain", 0)
    with pytest.raises(ValueError, match="0/1"):
        train_risk_model(x, y * 2, n_trees=2)
