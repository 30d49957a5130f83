from dataclasses import replace

import numpy as np
import pytest

from cfaudit.dataset import AuditDataset, Characteristic, SchemaSpec
from cfaudit.estimators import (METHODS, METRICS, NuisanceEstimates, comparison_rate,
                                estimate_all, membership_ratio, proposed_rate,
                                report_keys)


def one_char_schema(levels=("p", "q")):
    return SchemaSpec(characteristics=(Characteristic("a", tuple(levels)),),
                      treatment="d", outcome="y", prediction="s", covariates=("x1",))


def build(schema, codes, d, y, s):
    n = len(codes)
    return AuditDataset(
        schema=schema,
        group_codes=np.asarray(codes, dtype=np.int64),
        d=np.asarray(d, dtype=np.int8),
        y=np.asarray(y, dtype=np.int8),
        s=np.asarray(s, dtype=np.int8),
        x=np.zeros((n, 1)),
    )


def exact_nuisances(ds, propensity=None):
    """Degenerate exact-count nuisances: per-row outcomes and one-hot groups."""
    n = ds.n
    k = ds.schema.n_groups
    onehot = np.zeros((n, k))
    onehot[np.arange(n), ds.group_codes] = 1.0
    y = ds.y.astype(np.float64)
    return NuisanceEstimates(
        propensity=np.zeros(n) if propensity is None else np.asarray(propensity, float),
        mu0_s1=y, mu0_s0=y, mu0_all=y,
        group_prob=onehot,
    )


def test_comparison_constant_weights_reduce_to_empirical_rate():
    schema = one_char_schema()
    # one group, all untreated: two (Y=1,S=0) rows, two (Y=1,S=1) rows
    ds = build(schema, [0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1])
    est = comparison_rate(ds, np.full(4, 0.5), 0, "cFNR")
    assert est.defined
    assert est.value == pytest.approx(0.5, abs=1e-15)


def test_comparison_hand_weighted_case():
    # two untreated Y=1 rows: (S=0, pi=0.5 -> weight 2), (S=1, pi=0.75 -> weight 4)
    schema = one_char_schema()
    ds = build(schema, [0, 0], [0, 0], [1, 1], [0, 1])
    est = comparison_rate(ds, np.array([0.5, 0.75]), 0, "cFNR")
    assert est.value == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_comparison_undefined_when_cell_empty():
    schema = one_char_schema()
    ds = build(schema, [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0])
    est = comparison_rate(ds, np.full(4, 0.5), 0, "cFNR")
    assert not est.defined
    assert est.value is None


def test_overall_equals_comparison_for_single_group():
    rng = np.random.default_rng(0)
    schema = one_char_schema(levels=("only",))
    n = 40
    ds = build(schema, [0] * n, rng.integers(0, 2, n), rng.integers(0, 2, n),
               rng.integers(0, 2, n))
    pi = rng.uniform(0.1, 0.9, n)
    for metric in ("cFPR", "cFNR"):
        ov = comparison_rate(ds, pi, None, metric)
        cmp_ = comparison_rate(ds, pi, 0, metric)
        if ov.defined:
            assert ov.value == cmp_.value


def test_overall_all_predicted_positive_gives_zero_cfnr():
    schema = one_char_schema()
    ds = build(schema, [0, 1], [0, 0], [1, 1], [1, 1])
    est = comparison_rate(ds, np.full(2, 0.2), None, "cFNR")
    assert est.defined and est.value == 0.0


def test_overall_hand_computed_six_rows():
    # six untreated rows with varying weights; expected value written out
    # term by term below
    schema = one_char_schema()
    d = [0, 0, 0, 0, 0, 0]
    y = [1, 1, 1, 0, 1, 1]
    s = [0, 1, 0, 1, 1, 0]
    pi = np.array([0.5, 0.75, 0.2, 0.4, 0.9, 0.6])
    ds = build(schema, [0, 0, 0, 1, 1, 1], d, y, s)
    w = 1.0 / (1.0 - pi)  # 2, 4, 1.25, 5/3, 10, 2.5
    num = w[0] + w[2] + w[5]  # rows with y=1, s=0
    den = w[0] + w[1] + w[2] + w[4] + w[5]  # rows with y=1
    est = comparison_rate(ds, pi, None, "cFNR")
    assert est.value == pytest.approx(num / den, abs=1e-12)


def test_membership_ratio_single_group_is_one():
    rng = np.random.default_rng(1)
    schema = one_char_schema(levels=("only",))
    n = 30
    ds = build(schema, [0] * n, [0] * n, rng.integers(0, 2, n), rng.integers(0, 2, n))
    nuis = NuisanceEstimates(
        propensity=np.zeros(n),
        mu0_s1=rng.uniform(0.2, 0.8, n),
        mu0_s0=rng.uniform(0.2, 0.8, n),
        mu0_all=rng.uniform(0.2, 0.8, n),
        group_prob=np.ones((n, 1)),
    )
    for metric in ("cFPR", "cFNR"):
        assert membership_ratio(ds, nuis, 0, metric) == pytest.approx(1.0, abs=1e-12)


def test_membership_ratio_matched_constant_h_is_one():
    # h constant = q and the mu-weighted indicator share also q -> ratio 1
    schema = one_char_schema()
    n = 8
    codes = [0, 0, 1, 1, 0, 0, 1, 1]
    s = [0, 0, 0, 0, 1, 1, 1, 1]
    ds = build(schema, codes, [0] * n, [1] * n, s)
    mu = np.full(n, 0.6)  # constant, so weights cancel
    nuis = NuisanceEstimates(
        propensity=np.zeros(n), mu0_s1=mu, mu0_s0=mu, mu0_all=mu,
        group_prob=np.full((n, 2), 0.5),
    )
    ratio = membership_ratio(ds, nuis, 0, "cFNR")
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_membership_ratio_eight_row_hand_values():
    # hand-set mu/h values; the expected ratio is recomputed with explicit
    # python loops over the four sums
    schema = one_char_schema()
    codes = [0, 1, 0, 1, 0, 1, 0, 1]
    s = [0, 0, 1, 1, 0, 0, 1, 1]
    ds = build(schema, codes, [0] * 8, [1, 0, 1, 1, 0, 1, 0, 1], s)
    mu0_s0 = np.array([0.62, 0.38, 0.55, 0.71, 0.24, 0.49, 0.33, 0.81])
    mu0_all = np.array([0.58, 0.41, 0.52, 0.66, 0.31, 0.47, 0.39, 0.72])
    h_p = np.array([0.81, 0.22, 0.67, 0.35, 0.74, 0.18, 0.59, 0.27])
    nuis = NuisanceEstimates(
        propensity=np.zeros(8), mu0_s1=mu0_s0, mu0_s0=mu0_s0, mu0_all=mu0_all,
        group_prob=np.column_stack([h_p, 1.0 - h_p]),
    )
    num_top = sum(mu0_s0[i] * (codes[i] == 0) * (1 - s[i]) for i in range(8))
    num_bot = sum(mu0_s0[i] * (1 - s[i]) for i in range(8))
    den_top = sum(mu0_all[i] * h_p[i] for i in range(8))
    den_bot = sum(mu0_all[i] for i in range(8))
    expected = (num_top / num_bot) / (den_top / den_bot)
    got = membership_ratio(ds, nuis, 0, "cFNR")
    assert got == pytest.approx(expected, abs=1e-12)


def test_proposed_equals_overall_for_single_group():
    rng = np.random.default_rng(2)
    schema = one_char_schema(levels=("only",))
    n = 50
    ds = build(schema, [0] * n, [0] * n, rng.integers(0, 2, n), rng.integers(0, 2, n))
    nuis = NuisanceEstimates(
        propensity=np.zeros(n),
        mu0_s1=rng.uniform(0.2, 0.8, n), mu0_s0=rng.uniform(0.2, 0.8, n),
        mu0_all=rng.uniform(0.2, 0.8, n),
        group_prob=np.ones((n, 1)),
    )
    for metric in ("cFPR", "cFNR"):
        ov = comparison_rate(ds, nuis.propensity, None, metric)
        prop = proposed_rate(ds, nuis, ov, 0)
        assert prop.value == pytest.approx(ov.value, abs=1e-12)


def test_proposed_zero_overall_pins_groups_at_zero():
    schema = one_char_schema()
    ds = build(schema, [0, 1], [0, 0], [1, 1], [1, 1])  # no false negatives
    nuis = exact_nuisances(ds)
    ov = comparison_rate(ds, nuis.propensity, None, "cFNR")
    assert ov.value == 0.0
    for g in range(schema.n_groups):
        prop = proposed_rate(ds, nuis, ov, g)
        assert prop.defined and prop.value == 0.0


def _ratio_engineered_nuisances(schema, n, target_ratio):
    """All rows in group p and s=0; constant mu everywhere; h column for p
    constant at 1/target_ratio, so the membership ratio is exactly the target."""
    h_p = 1.0 / target_ratio
    return NuisanceEstimates(
        propensity=np.zeros(n),
        mu0_s1=np.full(n, 0.5), mu0_s0=np.full(n, 0.5), mu0_all=np.full(n, 0.5),
        group_prob=np.column_stack([np.full(n, h_p), np.full(n, 1.0 - h_p)]),
    )


def test_proposed_clipping_records_raw_value():
    from cfaudit.estimators import ErrorRateEstimate
    schema = one_char_schema()
    n = 6
    ds = build(schema, [0] * n, [0] * n, [1] * n, [0] * n)
    nuis = _ratio_engineered_nuisances(schema, n, target_ratio=2.0)
    assert membership_ratio(ds, nuis, 0, "cFNR") == pytest.approx(2.0, abs=1e-12)
    inflated = ErrorRateEstimate(metric="cFNR", method="proposed-internal",
                                 group=None, value=0.9, raw_value=0.9)
    prop = proposed_rate(ds, nuis, inflated, 0)
    assert prop.raw_value == pytest.approx(1.8, abs=1e-12)
    assert prop.value == 1.0
    assert prop.clipped


def test_proposed_multiplication_hand_value():
    # overall 0.4 times ratio 1.3 -> raw 0.52
    schema = one_char_schema()
    n = 5
    ds = build(schema, [0] * n, [0] * n, [1, 1, 1, 1, 1], [0, 0, 0, 0, 0])
    pi = np.zeros(n)
    nuis = _ratio_engineered_nuisances(schema, n, target_ratio=1.3)
    from cfaudit.estimators import ErrorRateEstimate
    ov = ErrorRateEstimate(metric="cFNR", method="proposed-internal",
                           group=None, value=0.4, raw_value=0.4)
    prop = proposed_rate(ds, nuis, ov, 0)
    assert prop.raw_value == pytest.approx(0.52, abs=1e-12)
    assert prop.value == pytest.approx(0.52, abs=1e-12)
    assert not prop.clipped


def test_exact_count_agreement_untreated_data():
    # with per-row exact nuisances and no treatment, proposed == comparison
    rng = np.random.default_rng(3)
    schema = one_char_schema(levels=("p", "q", "r"))
    n = 500
    codes = rng.integers(0, 3, n)
    ds = build(schema, codes, [0] * n, rng.integers(0, 2, n), rng.integers(0, 2, n))
    nuis = exact_nuisances(ds)
    for metric in ("cFPR", "cFNR"):
        ov = comparison_rate(ds, nuis.propensity, None, metric)
        for g in range(schema.n_groups):
            cmp_ = comparison_rate(ds, nuis.propensity, g, metric)
            prop = proposed_rate(ds, nuis, ov, g)
            if cmp_.defined:
                assert prop.value == pytest.approx(cmp_.value, abs=1e-10)


def test_weight_scale_invariance():
    rng = np.random.default_rng(4)
    schema = one_char_schema()
    n = 80
    ds = build(schema, rng.integers(0, 2, n), rng.integers(0, 2, n),
               rng.integers(0, 2, n), rng.integers(0, 2, n))
    pi = rng.uniform(0.05, 0.9, n)
    for c in (0.5, 3.0):
        # scaling all weights by c means using pi' = 1 - (1 - pi)/c
        pi_scaled = 1.0 - (1.0 - pi) / c
        for metric in ("cFPR", "cFNR"):
            a = comparison_rate(ds, pi, None, metric)
            b = comparison_rate(ds, pi_scaled, None, metric)
            assert b.value == pytest.approx(a.value, rel=1e-12)
            for g in range(schema.n_groups):
                ca = comparison_rate(ds, pi, g, metric)
                cb = comparison_rate(ds, pi_scaled, g, metric)
                if ca.defined:
                    assert cb.value == pytest.approx(ca.value, rel=1e-12)


def test_estimate_all_cardinality_and_consistency():
    rng = np.random.default_rng(6)
    schema = SchemaSpec(characteristics=(Characteristic("a1", ("0", "1")),
                                         Characteristic("a2", ("0", "1"))),
                        treatment="d", outcome="y", prediction="s", covariates=("x1",))
    n = 200
    ds = AuditDataset(schema=schema, group_codes=rng.integers(0, 4, n),
                      d=rng.integers(0, 2, n).astype(np.int8),
                      y=rng.integers(0, 2, n).astype(np.int8),
                      s=rng.integers(0, 2, n).astype(np.int8),
                      x=rng.standard_normal((n, 1)))
    k = 4
    h = rng.dirichlet(np.ones(k), size=n)
    nuis = NuisanceEstimates(
        propensity=rng.uniform(0.2, 0.8, n),
        mu0_s1=rng.uniform(0.1, 0.9, n), mu0_s0=rng.uniform(0.1, 0.9, n),
        mu0_all=rng.uniform(0.1, 0.9, n),
        group_prob=h,
    )
    borrowed = rng.dirichlet(np.ones(k), size=n)
    report = estimate_all(ds, nuis, borrowed_group_prob=borrowed)
    assert len(report.entries) == (4 + 1) * 2 * 3
    position = report_keys(4, METHODS).index

    def lookup(*key):
        return report.entries[position(key)]

    # entries match individually invoked operations
    for metric in ("cFPR", "cFNR"):
        ov = comparison_rate(ds, nuis.propensity, None, metric)
        assert lookup(None, metric, "comparison").value == ov.value
        for g in range(schema.n_groups):
            cmp_ = comparison_rate(ds, nuis.propensity, g, metric)
            assert lookup(g, metric, "comparison").value == cmp_.value
            prop = proposed_rate(ds, nuis, ov, g)
            assert lookup(g, metric, "proposed-internal").value == prop.value
            prop_b = proposed_rate(ds, replace(nuis, group_prob=borrowed),
                                   comparison_rate(ds, nuis.propensity, None, metric,
                                                   method="proposed-borrowing"),
                                   g, method="proposed-borrowing")
            assert lookup(g, metric, "proposed-borrowing").value == prop_b.value


def test_estimate_all_absent_group_undefined_comparison():
    schema = one_char_schema()
    ds = build(schema, [0, 0, 0], [0, 0, 0], [1, 0, 1], [0, 1, 1])
    nuis = exact_nuisances(ds)
    report = estimate_all(ds, nuis, methods=("comparison",))
    missing = report.entries[report_keys(2, ("comparison",)).index((1, "cFNR", "comparison"))]
    assert not missing.defined


def test_report_serialization_rows():
    schema = one_char_schema()
    ds = build(schema, [0, 0, 1], [0, 0, 0], [1, 0, 1], [0, 1, 1])
    nuis = exact_nuisances(ds)
    report = estimate_all(ds, nuis, methods=("comparison", "proposed-internal"))
    json_rows = report.to_json_rows(["p", "q"])
    assert len(json_rows) == len(report.entries)
    for row in json_rows:
        assert set(row) == {"group", "metric", "method", "value", "raw_value",
                            "defined", "clipped"}
    undefined = [r for r in json_rows if not r["defined"]]
    assert undefined and all(r["value"] is None for r in undefined)


def test_membership_ratio_checks_the_column_count():
    # column j of group_prob is group code j, so the width must be the schema's
    ds = build(one_char_schema(), [0, 1], [0, 0], [1, 1], [0, 1])
    nuis = replace(exact_nuisances(ds), group_prob=np.ones((2, 1)))
    with pytest.raises(ValueError, match="1 columns; the schema has 2 groups"):
        membership_ratio(ds, nuis, 0, "cFNR")


def test_an_unknown_metric_raises_naming_it():
    ds = build(one_char_schema(), [0, 1], [0, 0], [1, 1], [0, 1])
    nuis = exact_nuisances(ds)
    assert "cTPR" not in METRICS
    for estimate in (lambda: comparison_rate(ds, nuis.propensity, None, "cTPR"),
                     lambda: comparison_rate(ds, nuis.propensity, 0, "cTPR"),
                     lambda: membership_ratio(ds, nuis, 0, "cTPR")):
        with pytest.raises(ValueError, match="unknown metric: 'cTPR'"):
            estimate()


def test_report_order_is_report_keys_for_levels_out_of_string_order():
    # codes follow the schema's level order, not the levels' string order
    schema = SchemaSpec(characteristics=(Characteristic("age", ("young", "mid", "old")),
                                         Characteristic("region", ("s", "n"))),
                        treatment="d", outcome="y", prediction="s", covariates=("x1",))
    rng = np.random.default_rng(7)
    n = 120
    ds = build(schema, rng.integers(0, 6, n), rng.integers(0, 2, n),
               rng.integers(0, 2, n), rng.integers(0, 2, n))
    nuis = exact_nuisances(ds, propensity=rng.uniform(0.1, 0.8, n))
    report = estimate_all(ds, nuis, borrowed_group_prob=nuis.group_prob)
    keys = report_keys(6, METHODS)
    assert report.keys() == keys
    assert keys[:7] == [(None, "cFPR", "comparison")] + [
        (code, "cFPR", "comparison") for code in range(6)]
    for (group, metric, method), e in zip(keys, report.entries):
        if group is not None and method == "comparison":
            assert e.value == comparison_rate(ds, nuis.propensity, group, metric).value
    labels = schema.group_labels
    assert labels[:3] == ("young|s", "young|n", "mid|s")
    rows = report.to_json_rows(labels)
    assert [r["group"] for r in rows[:4]] == ["overall", "young|s", "young|n", "mid|s"]
    values = report.values()
    assert np.array_equal(values, [e.value if e.defined else np.nan for e in report.entries],
                          equal_nan=True)


def test_estimate_all_needs_the_borrowed_matrix_for_borrowing():
    ds = build(one_char_schema(), [0, 1], [0, 0], [1, 1], [0, 1])
    with pytest.raises(ValueError, match="borrowed_group_prob"):
        estimate_all(ds, exact_nuisances(ds))


def test_report_values_check_the_expected_cells():
    ds = build(one_char_schema(), [0, 1], [0, 0], [1, 1], [0, 1])
    report = estimate_all(ds, exact_nuisances(ds), methods=("comparison",))
    keys = report_keys(2, ("comparison",))
    assert np.array_equal(report.values(keys), report.values(), equal_nan=True)
    with pytest.raises(RuntimeError, match="differ"):
        report.values(report_keys(2, ("comparison", "proposed-internal")))
