import numpy as np
import pytest

from cfaudit.dataset import (AuditDataset, ExternalDataset, GroupKey,
                             LevelSetMismatch, MissingColumn, MissingValue,
                             NonBinaryValue, SchemaSpec, UnknownLevel,
                             load_external, load_internal, subgroup_counts,
                             write_internal)


def two_char_schema(covs=("x1",)):
    return SchemaSpec(
        characteristics=("a1", "a2"),
        level_sets=(("0", "1"), ("0", "1")),
        treatment="d",
        outcome="y",
        prediction="s",
        covariates=tuple(covs),
    )


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


def test_load_internal_valid(tmp_path):
    path = tmp_path / "internal.csv"
    write_csv(path, ["a1", "a2", "d", "y", "s", "x1"], [
        ["0", "0", 0, 1, 0, 0.5],
        ["0", "1", 1, 0, 1, -1.25],
        ["1", "0", 0, 0, 0, 2.0],
        ["1", "1", 1, 1, 1, 0.0],
    ])
    ds = load_internal(path, two_char_schema())
    assert ds.n == 4
    assert ds.group_codes.tolist() == [0, 1, 2, 3]
    assert list(ds.d) == [0, 1, 0, 1]
    assert ds.x[1, 0] == -1.25


def test_load_internal_nonbinary_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a1", "a2", "d", "y", "s", "x1"], [
        ["0", "0", 0, 1, 0, 0.5],
        ["0", "0", 1, 0, 1, 0.5],
        ["0", "0", 2, 0, 0, 0.5],
    ])
    with pytest.raises(NonBinaryValue, match="row 3"):
        load_internal(path, two_char_schema())


def test_load_internal_missing_value(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a1", "a2", "d", "y", "s", "x1"], [
        ["0", "0", 0, 1, 0, ""],
    ])
    with pytest.raises(MissingValue):
        load_internal(path, two_char_schema())


def test_load_internal_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a1", "a2", "d", "y", "x1"], [["0", "0", 0, 1, 0.5]])
    with pytest.raises(MissingColumn, match="'s'"):
        load_internal(path, two_char_schema())


def test_load_internal_unknown_level(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a1", "a2", "d", "y", "s", "x1"], [["3", "0", 0, 1, 0, 0.5]])
    with pytest.raises(UnknownLevel):
        load_internal(path, two_char_schema())


def test_load_external_valid_and_mismatch(tmp_path):
    schema = two_char_schema()
    good = tmp_path / "ext.csv"
    write_csv(good, ["a1", "a2", "x1"], [["0", "1", 1.5], ["1", "1", -0.5]])
    ext = load_external(good, schema)
    assert ext.n == 2
    assert [schema.all_groups()[c] for c in ext.group_codes] == [GroupKey(("0", "1")),
                                                                 GroupKey(("1", "1"))]
    assert not hasattr(ext, "d")

    bad = tmp_path / "ext_bad.csv"
    write_csv(bad, ["a1", "a2", "x1"], [["0", "9", 1.5]])
    with pytest.raises(LevelSetMismatch):
        load_external(bad, schema)


def test_load_external_empty_is_valid(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a1", "a2", "x1"], [])
    ext = load_external(path, two_char_schema())
    assert ext.n == 0


def test_roundtrip_identical(tmp_path):
    rng = np.random.default_rng(3)
    schema = two_char_schema(covs=("x1", "x2"))
    n = 60
    ds = AuditDataset(
        schema=schema,
        group_codes=rng.integers(0, 4, n),
        d=rng.integers(0, 2, n).astype(np.int8),
        y=rng.integers(0, 2, n).astype(np.int8),
        s=rng.integers(0, 2, n).astype(np.int8),
        x=rng.standard_normal((n, 2)),
    )
    path = tmp_path / "roundtrip.csv"
    write_internal(ds, path)
    back = load_internal(path, schema)
    assert np.array_equal(back.group_codes, ds.group_codes)
    assert np.array_equal(back.d, ds.d)
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.s, ds.s)
    assert np.array_equal(back.x, ds.x)


def random_dataset(schema, codes, seed=0):
    rng = np.random.default_rng(seed)
    n = len(codes)
    return AuditDataset(
        schema=schema,
        group_codes=np.asarray(codes),
        d=rng.integers(0, 2, n).astype(np.int8),
        y=rng.integers(0, 2, n).astype(np.int8),
        s=rng.integers(0, 2, n).astype(np.int8),
        x=rng.standard_normal((n, len(schema.covariates))),
    )


@pytest.mark.parametrize("bad", [-1, 4])
def test_audit_dataset_rejects_codes_outside_the_schema(bad):
    # a code of -1 would index the last group wherever codes index arrays
    codes = np.random.default_rng(12).integers(0, 4, 200)
    codes[:5] = bad
    with pytest.raises(ValueError, match=r"group codes must lie in \[0, 4\)"):
        random_dataset(two_char_schema(), codes)


def test_external_dataset_checks_lengths_columns_and_codes():
    schema = two_char_schema(covs=("x1", "x2"))
    with pytest.raises(ValueError, match="covariate block"):
        ExternalDataset(schema=schema, group_codes=np.zeros(5, dtype=np.int64),
                        x=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="covariate block"):
        ExternalDataset(schema=schema, group_codes=np.zeros(3, dtype=np.int64),
                        x=np.zeros((3, 1)))
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="group codes"):
            ExternalDataset(schema=schema, group_codes=np.array([0, bad, 1]),
                            x=np.zeros((3, 2)))
    assert ExternalDataset(schema=schema, group_codes=np.array([0, 3, 1]),
                           x=np.zeros((3, 2))).n == 3


def test_subgroup_counts_single_cell():
    schema = two_char_schema()
    n = 7
    ds = AuditDataset(
        schema=schema,
        group_codes=np.zeros(n, dtype=np.int64),
        d=np.zeros(n, dtype=np.int8),
        y=np.ones(n, dtype=np.int8),
        s=np.zeros(n, dtype=np.int8),
        x=np.zeros((n, 1)),
    )
    counts = subgroup_counts(ds)
    assert counts.shape == (4, 2, 2, 2)
    cells = counts[schema.level_codes[("0", "0")]]
    assert cells[0, 0, 1] == n
    assert cells.sum() == n
    assert counts.sum() == n


def test_subgroup_counts_hand_tallied():
    # 8 rows checked against a manual tally
    schema = two_char_schema()
    rows = [
        # (a1, a2, d, s, y)
        ("0", "0", 0, 0, 1),
        ("0", "0", 0, 0, 1),
        ("0", "0", 1, 1, 0),
        ("0", "1", 0, 1, 1),
        ("0", "1", 0, 1, 1),
        ("1", "0", 1, 0, 0),
        ("1", "1", 0, 0, 0),
        ("1", "1", 1, 1, 1),
    ]
    code = {g.levels: c for c, g in enumerate(schema.all_groups())}
    ds = AuditDataset(
        schema=schema,
        group_codes=np.array([code[(r[0], r[1])] for r in rows]),
        d=np.array([r[2] for r in rows], dtype=np.int8),
        s=np.array([r[3] for r in rows], dtype=np.int8),
        y=np.array([r[4] for r in rows], dtype=np.int8),
        x=np.zeros((8, 1)),
    )
    counts = subgroup_counts(ds)
    assert counts[code[("0", "0")]][0, 0, 1] == 2
    assert counts[code[("0", "0")]][1, 1, 0] == 1
    assert counts[code[("0", "1")]][0, 1, 1] == 2
    assert counts[code[("1", "0")]][1, 0, 0] == 1
    assert counts[code[("1", "1")]][0, 0, 0] == 1
    assert counts[code[("1", "1")]][1, 1, 1] == 1
    assert counts.sum() == 8


def test_subgroup_counts_permutation_invariant():
    rng = np.random.default_rng(5)
    schema = two_char_schema()
    n = 50
    base = AuditDataset(
        schema=schema,
        group_codes=rng.integers(0, 4, n),
        d=rng.integers(0, 2, n).astype(np.int8),
        y=rng.integers(0, 2, n).astype(np.int8),
        s=rng.integers(0, 2, n).astype(np.int8),
        x=rng.standard_normal((n, 1)),
    )
    perm = rng.permutation(n)
    shuffled = base.take(perm)
    assert np.array_equal(subgroup_counts(base), subgroup_counts(shuffled))


def _subgroup_counts_loop(ds):
    # the per-row tally that subgroup_counts replaced, kept as its reference
    counts = {g: np.zeros((2, 2, 2), dtype=np.int64) for g in ds.schema.all_groups()}
    groups = ds.schema.all_groups()
    for i in range(ds.n):
        counts[groups[ds.group_codes[i]]][ds.d[i], ds.s[i], ds.y[i]] += 1
    return counts


def test_subgroup_counts_equal_the_loop_reference_with_empty_and_singleton_groups():
    schema = SchemaSpec(characteristics=("a1", "a2"),
                        level_sets=(("0", "1", "2"), ("0", "1")),
                        treatment="d", outcome="y", prediction="s", covariates=("x1",))
    for seed in range(5):
        rng = np.random.default_rng(40 + seed)
        codes = rng.choice([0, 1, 3, 5], size=90)  # codes 2 and 4 empty
        codes[int(rng.integers(0, 90))] = 4  # then 4 a singleton
        ds = random_dataset(schema, codes, seed)
        counts = subgroup_counts(ds)
        reference = _subgroup_counts_loop(ds)
        assert counts.dtype == np.int64
        assert len(counts) == len(reference)
        for got, want in zip(counts, reference.values()):
            assert np.array_equal(got, want)


def test_group_codes_index_all_groups_in_product_order():
    schema = two_char_schema()
    groups = schema.all_groups()
    assert groups[2] == GroupKey(("1", "0")) and groups[0] == GroupKey(("0", "0"))
    assert [schema.level_codes[g.levels] for g in groups] == list(range(len(groups)))
    assert schema.level_codes == {g.levels: code for code, g in enumerate(groups)}
