import numpy as np
import pytest
from scipy.stats import t as t_dist

from cfaudit.dataset import AuditDataset, ExternalDataset, SchemaSpec
from cfaudit import inference, models
from cfaudit.inference import (_replicate_values, _t_multiplier, bootstrap_estimates,
                               stratified_resample)
from cfaudit.models import BinarySpec, ModelError, MulticlassConfig
from cfaudit.pipeline import PipelineConfig, run_pipeline


def fast_config(**kw):
    base = dict(
        pi=BinarySpec(l2=0.5),
        mu=BinarySpec(l2=0.5),
        h_internal=MulticlassConfig(epochs=20, lr=0.5),
        h_external=MulticlassConfig(epochs=20, lr=0.5),
        crossfit_k=1,
        borrow=False,
        methods=("comparison", "proposed-internal"),
    )
    base.update(kw)
    return PipelineConfig(**base)


def random_dataset(n=60, seed=0, groups=2):
    rng = np.random.default_rng(seed)
    schema = SchemaSpec(characteristics=("a",),
                        level_sets=(tuple(str(i) for i in range(groups)),),
                        treatment="d", outcome="y", prediction="s",
                        covariates=("x1", "x2"))
    return AuditDataset(
        schema=schema,
        group_codes=rng.integers(0, groups, n),
        d=rng.integers(0, 2, n).astype(np.int8),
        y=rng.integers(0, 2, n).astype(np.int8),
        s=rng.integers(0, 2, n).astype(np.int8),
        x=rng.standard_normal((n, 2)),
    )


def constant_dataset(n=20):
    schema = SchemaSpec(characteristics=("a",), level_sets=(("0",),),
                        treatment="d", outcome="y", prediction="s",
                        covariates=("x1",))
    return AuditDataset(
        schema=schema,
        group_codes=np.zeros(n, dtype=np.int64),
        d=np.zeros(n, dtype=np.int8),
        y=np.ones(n, dtype=np.int8),
        s=np.zeros(n, dtype=np.int8),
        x=np.ones((n, 1)),
    )


def test_stratified_resample_preserves_group_counts():
    ds = random_dataset(n=120, seed=1, groups=3)
    rng = np.random.default_rng(9)
    for _ in range(5):
        res = stratified_resample(ds, rng)
        assert res.n == ds.n
        assert np.array_equal(np.bincount(res.group_codes, minlength=3),
                              np.bincount(ds.group_codes, minlength=3))


def _stratified_resample_loop(ds, rng):
    # the per-group index walk that stratified_resample replaced, kept as its
    # reference
    chosen = []
    for code in range(len(ds.schema.all_groups())):
        idx = np.flatnonzero(ds.group_codes == code)
        if len(idx) == 0:
            continue
        chosen.append(idx[rng.integers(0, len(idx), size=len(idx))])
    return ds.take(np.concatenate(chosen))


def test_stratified_resample_draws_as_the_loop_reference_with_empty_and_singleton_groups():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        codes = rng.choice([0, 1, 3, 5], size=80)  # codes 2 and 4 empty
        codes[int(rng.integers(0, 80))] = 4  # then 4 a singleton
        base = random_dataset(n=80, seed=seed, groups=6)
        ds = AuditDataset(schema=base.schema, group_codes=codes, d=base.d, y=base.y,
                          s=base.s, x=base.x)
        got = stratified_resample(ds, np.random.default_rng(100 + seed))
        want = _stratified_resample_loop(ds, np.random.default_rng(100 + seed))
        for name in ("group_codes", "d", "y", "s", "x"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_bootstrap_same_seed_bit_identical():
    ds = random_dataset(seed=2)
    out1 = bootstrap_estimates(ds, None, fast_config(), B=8, seed=33)
    out2 = bootstrap_estimates(ds, None, fast_config(), B=8, seed=33)
    for key in out1:
        a, b = out1[key], out2[key]
        assert np.array_equal(a.replicates, b.replicates, equal_nan=True)
        assert a.lower == b.lower and a.upper == b.upper


def test_bootstrap_zero_variance_collapses_interval():
    ds = constant_dataset()
    out = bootstrap_estimates(ds, None, fast_config(), B=6, seed=1)
    key = (0, "cFNR", "comparison")
    res = out[key]
    # every row identical: the empirical cFNR is exactly 1 in every replicate
    assert res.point == 1.0
    assert res.se == 0.0
    assert res.lower == res.upper == 1.0


def test_bootstrap_intervals_inside_unit_box_with_truncation_flags():
    ds = random_dataset(n=40, seed=3)
    out = bootstrap_estimates(ds, None, fast_config(), B=12, seed=5)
    saw_truncation = False
    for res in out.values():
        if res.lower is None:
            continue
        assert 0.0 <= res.lower <= res.upper <= 1.0
        if res.truncated_low or res.truncated_high:
            saw_truncation = True
            # truncation never widens: the raw interval must extend past the box
            if res.truncated_low:
                assert res.point - t_dist.ppf(0.975, res.B - 1) * res.se < 0.0
    assert saw_truncation  # small noisy samples push intervals past the box


def test_bootstrap_t_multiplier_uses_b_minus_one():
    ds = random_dataset(n=80, seed=4)
    B = 10
    out = bootstrap_estimates(ds, None, fast_config(), B=B, seed=7, level=0.9)
    for res in out.values():
        if res.se is None or res.se == 0.0 or res.point is None:
            continue
        good = res.replicates[~np.isnan(res.replicates)]
        se = float(np.std(good, ddof=1))
        mult = t_dist.ppf(0.95, df=B - 1)
        assert res.upper == pytest.approx(min(res.point + mult * se, 1.0), abs=1e-12)
        assert res.lower == pytest.approx(max(res.point - mult * se, 0.0), abs=1e-12)


def test_bootstrap_na_replicates_excluded_from_se():
    # minority group so small that some resamples lose its false-negative cell
    rng = np.random.default_rng(8)
    schema = SchemaSpec(characteristics=("a",), level_sets=(("big", "small"),),
                        treatment="d", outcome="y", prediction="s",
                        covariates=("x1",))
    n = 40
    codes = np.array([0] * 36 + [1] * 4)
    ds = AuditDataset(
        schema=schema, group_codes=codes,
        d=np.zeros(n, dtype=np.int8),
        y=np.concatenate([rng.integers(0, 2, 36), [1, 0, 0, 0]]).astype(np.int8),
        s=np.concatenate([rng.integers(0, 2, 36), [0, 1, 1, 1]]).astype(np.int8),
        x=rng.standard_normal((n, 1)),
    )
    out = bootstrap_estimates(ds, None, fast_config(), B=40, seed=11)
    res = out[(1, "cFNR", "comparison")]
    assert res.na_count > 0
    good = res.replicates[~np.isnan(res.replicates)]
    if len(good) > 1:
        assert res.se == pytest.approx(float(np.std(good, ddof=1)))


def test_replicate_na_only_for_model_errors(monkeypatch):
    ds = random_dataset(seed=5)
    keys = run_pipeline(ds, None, fast_config(), 1).report.keys()
    task = (ds, None, fast_config(), np.random.SeedSequence(2), keys)

    def failing_fit(error):
        def fit(*args, **kwargs):
            raise error("membership fit failed")
        return fit

    monkeypatch.setattr(models, "fit_multiclass", failing_fit(ModelError))
    assert np.all(np.isnan(_replicate_values(task)))
    monkeypatch.setattr(models, "fit_multiclass", failing_fit(TypeError))
    with pytest.raises(TypeError):
        _replicate_values(task)


def test_replicate_with_other_cells_than_the_point_run_raises(monkeypatch):
    ds = random_dataset(seed=5)
    keys = run_pipeline(ds, None, fast_config(), 1).report.keys()
    task = (ds, None, fast_config(), np.random.SeedSequence(2), keys)
    assert _replicate_values(task).shape == (len(keys),)

    def without_proposed(*args, **kwargs):
        result = run_pipeline(*args, **kwargs)
        result.report.entries = [e for e in result.report.entries
                                 if e.method != "proposed-internal"]
        return result

    monkeypatch.setattr(inference, "run_pipeline", without_proposed)
    with pytest.raises(RuntimeError, match="differ"):
        _replicate_values(task)


def test_bootstrap_rejects_tiny_b():
    ds = random_dataset()
    with pytest.raises(ValueError):
        bootstrap_estimates(ds, None, fast_config(), B=1, seed=0)


def test_bootstrap_parallel_matches_sequential():
    ds = random_dataset(n=50, seed=6)
    seq = bootstrap_estimates(ds, None, fast_config(), B=6, seed=21, n_jobs=1)
    par = bootstrap_estimates(ds, None, fast_config(), B=6, seed=21, n_jobs=2)
    for key in seq:
        assert np.array_equal(seq[key].replicates, par[key].replicates,
                              equal_nan=True)


def borrowing_case(n=60, n_ext=90, seed=12):
    """An internal dataset, an external one of another size, and a
    softmax-linear config that borrows from it."""
    ds = random_dataset(n=n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    external = ExternalDataset(schema=ds.schema, group_codes=rng.integers(0, 2, n_ext),
                               x=rng.standard_normal((n_ext, 2)))
    config = fast_config(borrow=True, alpha_grid_step=0.05,
                         methods=("comparison", "proposed-internal", "proposed-borrowing"))
    return ds, external, config


def test_bootstrap_replicates_with_external_data_match_direct_runs():
    ds, external, config = borrowing_case(seed=13)
    B, seed = 5, 8
    out = bootstrap_estimates(ds, external, config, B=B, seed=seed)
    assert any(key[2] == "proposed-borrowing" for key in out)
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(B)):
        rng = np.random.default_rng(child)
        resampled = stratified_resample(ds, rng)
        reference = run_pipeline(resampled, external, config,
                                 int(rng.integers(0, 2**31 - 1)))
        assert len(reference.report.entries) == len(out)
        for e in reference.report.entries:
            value = e.value if e.defined else np.nan
            assert np.array_equal(out[(e.group, e.metric, e.method)].replicates[b],
                                  value, equal_nan=True)


def test_bootstrap_with_external_parallel_matches_sequential():
    ds, external, config = borrowing_case(seed=14)
    seq = bootstrap_estimates(ds, external, config, B=4, seed=21, n_jobs=1)
    par = bootstrap_estimates(ds, external, config, B=4, seed=21, n_jobs=2)
    assert seq.keys() == par.keys()
    for key in seq:
        assert np.array_equal(seq[key].replicates, par[key].replicates,
                              equal_nan=True)


@pytest.mark.slow
def test_bootstrap_interval_coverage_under_randomized_treatment():
    """Nominal 95% intervals for the majority-group ratio-form false-negative
    rate cover the oracle truth in at least 85% of 200 simulation
    replications (randomized treatment, correctly specified GLM nuisances)."""
    from cfaudit.simlab import (ScenarioConfig,
                                default_coefficients, generate_population,
                                oracle_error_rates, sim_schema,
                                to_audit_dataset, train_risk_model)

    coeffs = default_coefficients()
    coeffs.treatment[:] = 0.0  # P(D=1) = 1/2 everywhere
    cfg = ScenarioConfig(n_internal=1000, replications=1, seed=880, coefficients=coeffs)
    pipe = PipelineConfig(
        pi=BinarySpec(l2=0.01), mu=BinarySpec(l2=0.01),
        h_internal=MulticlassConfig(kind="softmax-linear", epochs=200, lr=2.0),
        crossfit_k=1, borrow=False,
        methods=("comparison", "proposed-internal"),
    )
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(3 + 200)
    train = generate_population(cfg, "train", children[0])
    model = train_risk_model(train.x, train.y, seed=children[2])
    validation = generate_population(cfg, "validation", children[1])
    truth = oracle_error_rates(validation, model).get(0, "cFNR")
    schema = sim_schema(cfg)

    covered, usable = 0, 0
    for rep in range(200):
        sub = children[3 + rep].spawn(2)
        internal = to_audit_dataset(
            generate_population(cfg, "internal", sub[0], risk_model=model), schema)
        boot_seed = int(sub[1].generate_state(1)[0] % (2**31 - 1))
        out = bootstrap_estimates(internal, None, pipe, B=100, seed=boot_seed)
        res = out[(0, "cFNR", "proposed-internal")]
        if res.lower is None:
            continue
        usable += 1
        if res.lower <= truth <= res.upper:
            covered += 1
    assert usable == 200
    coverage = covered / usable
    print(f"coverage: {coverage:.3f} (oracle {truth:.4f})")
    assert coverage >= 0.85


def test_t_multiplier_equals_scipy_stats_t_ppf():
    for level in (0.9, 0.95, 0.99):
        q = 1.0 - (1.0 - level) / 2.0
        for B in range(2, 1001):
            assert _t_multiplier(B, level) == float(t_dist.ppf(q, df=B - 1))
