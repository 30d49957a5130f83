import numpy as np
import pytest

from cfaudit.dataset import (AuditDataset, GroupKey, LevelSetMismatch,
                             MissingColumn, MissingValue, NonBinaryValue,
                             SchemaSpec, UnknownLevel, load_external,
                             load_internal, subgroup_counts, write_internal)


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
    assert len([g for g, idx in ds.group_index.items() if len(idx)]) == 4
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


def test_group_index_partitions_rows():
    rng = np.random.default_rng(11)
    schema = two_char_schema()
    n = 200
    ds = AuditDataset(
        schema=schema,
        group_codes=rng.integers(0, 4, n),
        d=rng.integers(0, 2, n).astype(np.int8),
        y=rng.integers(0, 2, n).astype(np.int8),
        s=rng.integers(0, 2, n).astype(np.int8),
        x=rng.standard_normal((n, 1)),
    )
    combined = np.concatenate([idx for idx in ds.group_index.values()])
    assert len(combined) == n
    assert np.array_equal(np.sort(combined), np.arange(n))


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
    cells = counts[GroupKey(("0", "0"))]
    assert cells[0, 0, 1] == n
    assert cells.sum() == n
    assert sum(c.sum() for c in counts.values()) == n


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
    assert counts[GroupKey(("0", "0"))][0, 0, 1] == 2
    assert counts[GroupKey(("0", "0"))][1, 1, 0] == 1
    assert counts[GroupKey(("0", "1"))][0, 1, 1] == 2
    assert counts[GroupKey(("1", "0"))][1, 0, 0] == 1
    assert counts[GroupKey(("1", "1"))][0, 0, 0] == 1
    assert counts[GroupKey(("1", "1"))][1, 1, 1] == 1
    assert sum(c.sum() for c in counts.values()) == 8


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
    c1 = subgroup_counts(base)
    c2 = subgroup_counts(shuffled)
    for g in schema.all_groups():
        assert np.array_equal(c1[g], c2[g])


def test_group_codes_index_all_groups_in_product_order():
    schema = two_char_schema()
    groups = schema.all_groups()
    assert groups[2] == GroupKey(("1", "0")) and groups[0] == GroupKey(("0", "0"))
    assert [schema.group_code(g) for g in groups] == list(range(len(groups)))
    assert schema.level_codes == {g.levels: code for code, g in enumerate(groups)}
