import codecs
import contextlib
import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cfaudit import dataset
from cfaudit.dataset import (AuditDataset, Characteristic, DataError, ExternalDataset,
                             SchemaSpec, _row_chunks, load_external, load_internal,
                             subgroup_counts, write_internal)


def two_char_schema(covs=("x1",)):
    return SchemaSpec(
        characteristics=(Characteristic("a1", ("0", "1")), Characteristic("a2", ("0", "1"))),
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
    with pytest.raises(DataError, match="non-binary value '2' for d in row 3"):
        load_internal(path, two_char_schema())


def test_load_internal_missing_value(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a1", "a2", "d", "y", "s", "x1"], [
        ["0", "0", 0, 1, 0, ""],
    ])
    with pytest.raises(DataError, match="empty x1 cell in row 1"):
        load_internal(path, two_char_schema())


def test_load_internal_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a1", "a2", "d", "y", "x1"], [["0", "0", 0, 1, 0.5]])
    with pytest.raises(DataError, match="missing column 's'"):
        load_internal(path, two_char_schema())


def test_load_internal_unknown_level(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["a1", "a2", "d", "y", "s", "x1"], [["3", "0", 0, 1, 0, 0.5]])
    with pytest.raises(DataError, match="unknown level '3' for a1 in row 1"):
        load_internal(path, two_char_schema())


def test_load_external_valid_and_mismatch(tmp_path):
    schema = two_char_schema()
    good = tmp_path / "ext.csv"
    write_csv(good, ["a1", "a2", "x1"], [["0", "1", 1.5], ["1", "1", -0.5]])
    ext = load_external(good, schema)
    assert ext.n == 2
    assert [schema.group_labels[c] for c in ext.group_codes] == ["0|1", "1|1"]
    assert not hasattr(ext, "d")

    bad = tmp_path / "ext_bad.csv"
    write_csv(bad, ["a1", "a2", "x1"], [["0", "9", 1.5]])
    with pytest.raises(DataError, match="external level '9' for a2 in row 1 not present "
                                        "in the internal schema"):
        load_external(bad, schema)


def test_load_external_empty_is_valid(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a1", "a2", "x1"], [])
    ext = load_external(path, two_char_schema())
    assert ext.n == 0


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_loaders_reject_non_finite_covariate_cells(tmp_path, cell):
    schema = two_char_schema(covs=("x1", "x2"))
    internal = tmp_path / "internal.csv"
    write_csv(internal, ["a1", "a2", "d", "y", "s", "x1", "x2"], [
        ["0", "0", 0, 1, 0, 0.5, 1.0],
        ["1", "0", 0, 1, 0, 0.5, cell],
    ])
    with pytest.raises(DataError, match=f"non-numeric value '{cell}' for x2 in row 2"):
        load_internal(internal, schema)
    external = tmp_path / "external.csv"
    write_csv(external, ["a1", "a2", "x1", "x2"], [["0", "1", cell, 1.5]])
    with pytest.raises(DataError, match=f"non-numeric value '{cell}' for x1 in row 1"):
        load_external(external, schema)


def test_loaders_reject_a_row_shorter_than_the_header(tmp_path):
    internal = tmp_path / "internal.csv"
    write_csv(internal, ["a1", "a2", "d", "y", "s", "x1"], [
        ["0", "0", 0, 1, 0, 0.5],
        ["1", "1", 0],
    ])
    with pytest.raises(DataError, match="row 2 has 3 cells; the header has 6"):
        load_internal(internal, two_char_schema())
    write_csv(internal, ["a1", "a2", "d", "y", "s", "x1"], [
        ["1", "0", 1, 0, 1, 2.5, 9.0],
    ])
    with pytest.raises(DataError, match="row 1 has 7 cells; the header has 6"):
        load_internal(internal, two_char_schema())
    external = tmp_path / "external.csv"
    write_csv(external, ["a1", "a2", "x1", "extra"], [["0", "1", 1.5]])
    with pytest.raises(DataError, match="row 1 has 3 cells; the header has 4"):
        load_external(external, two_char_schema())


def test_loaders_reject_a_header_naming_a_schema_column_twice(tmp_path):
    schema = two_char_schema(covs=("x1", "x2"))
    internal = tmp_path / "internal.csv"
    write_csv(internal, ["a1", "a2", "d", "y", "s", "x1", "x1", "x2"], [
        ["0", "0", 0, 1, 0, 0.5, 9.0, 1.5],
    ])
    with pytest.raises(DataError, match="column 'x1' more than once"):
        load_internal(internal, schema)
    external = tmp_path / "external.csv"
    write_csv(external, ["a1", "a1", "a2", "x1", "x2"], [["0", "0", "1", 1.5, 2.5]])
    with pytest.raises(DataError, match="column 'a1' more than once"):
        load_external(external, schema)
    # a repeated column outside the schema is not read, so it is no error
    write_csv(external, ["a1", "a2", "x1", "x2", "note", "note"],
              [["0", "1", 1.5, 2.5, "a", "b"]])
    assert load_external(external, schema).x.tolist() == [[1.5, 2.5]]


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


def parsed_by_row(path, schema, columns, binaries, covariates):
    """(group codes, binary block, covariate block) of a well-formed CSV,
    converted one row and one cell at a time: the reference for the loaders'
    bulk parse."""
    rows = [row for _, chunk in _row_chunks(path, columns) for row in chunk]
    k, b, p = len(schema.characteristics), len(binaries), len(covariates)
    codes = np.array([schema.level_codes[tuple(row[:k])] for row in rows], dtype=np.int64)
    binary = np.array([[int(cell) for cell in row[k:k + b]] for row in rows],
                      dtype=np.int8).reshape(len(rows), b)
    x = np.array([[float(cell) for cell in row[k + b:]] for row in rows],
                 dtype=np.float64).reshape(len(rows), p)
    return codes, binary, x


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("workload,smoke,chunk_rows", [
    pytest.param("audit-boot", True, None, id="audit-boot"),
    pytest.param("audit-wide", True, None, id="audit-wide"),
    # audit-boot's smoke files fit in one chunk of the default size; these cross chunks
    pytest.param("audit-boot", True, 1, id="audit-boot-chunk1"),
    pytest.param("audit-wide", True, 1, id="audit-wide-chunk1"),
    pytest.param("audit-boot", True, 7, id="audit-boot-chunk7"),
    pytest.param("audit-wide", True, 7, id="audit-wide-chunk7"),
    pytest.param("audit-wide", False, None, id="audit-wide-full"),
])
def test_bulk_parse_equals_the_per_row_parse_on_the_bench_inputs(tmp_path, monkeypatch, workload,
                                                                 smoke, chunk_rows):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import write_inputs

    if chunk_rows is not None:
        monkeypatch.setattr(dataset, "CHUNK_ROWS", chunk_rows)
    write_inputs(workload, 1, tmp_path, smoke=smoke)
    schema = SchemaSpec.from_json(tmp_path / "schema.json")
    binaries = (schema.treatment, schema.outcome, schema.prediction)
    internal = load_internal(tmp_path / "internal.csv", schema)
    codes, binary, x = parsed_by_row(tmp_path / "internal.csv", schema, schema.internal_columns,
                                     binaries, schema.covariates)
    assert_same_arrays((internal.group_codes, internal.d, internal.y, internal.s, internal.x),
                       (codes, *np.ascontiguousarray(binary.T), x))
    external = load_external(tmp_path / "external.csv", schema)
    codes, _, x = parsed_by_row(tmp_path / "external.csv", schema, schema.external_columns,
                                (), schema.external_covariates)
    assert_same_arrays((external.group_codes, external.x), (codes, x))


LAST_ROW = 30


@pytest.mark.parametrize("column,cell,message", [
    ("x2", "abc", "non-numeric value 'abc' for x2 in row 30"),
    ("x1", "inf", "non-numeric value 'inf' for x1 in row 30"),
    ("x2", "", "empty x2 cell in row 30"),
    ("d", "2", "non-binary value '2' for d in row 30"),
    ("s", "", "empty s cell in row 30"),
    ("a2", "9", "unknown level '9' for a2 in row 30"),
    ("a1", "", "empty a1 cell in row 30"),
])
def test_a_bad_cell_in_the_last_row_raises_the_per_row_error(tmp_path, column, cell, message):
    schema = two_char_schema(covs=("x1", "x2"))
    rng = np.random.default_rng(17)
    ds = random_dataset(schema, rng.integers(0, 4, LAST_ROW), seed=17)
    for columns, load in ((schema.internal_columns, load_internal),
                          (schema.external_columns, load_external)):
        if column not in columns:
            continue
        path = tmp_path / f"{load.__name__}.csv"
        write_internal(ds, path)
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        header = rows[0]
        rows[-1][header.index(column)] = cell
        write_csv(path, header, rows[1:])
        if load is load_external and message.startswith("unknown level"):
            message = (f"external level '{cell}' for {column} in row {LAST_ROW} "
                       "not present in the internal schema")
        with pytest.raises(DataError) as raised:
            load(path, schema)
        assert str(raised.value) == f"{path}: {message}"


def test_loaders_accept_a_utf8_byte_order_mark(tmp_path):
    schema = two_char_schema(covs=("x1", "x2"))
    ds = random_dataset(schema, np.arange(12) % 4, seed=18)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_internal(ds, plain)
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    want, got = load_internal(plain, schema), load_internal(marked, schema)
    assert_same_arrays((got.group_codes, got.d, got.y, got.s, got.x),
                       (want.group_codes, want.d, want.y, want.s, want.x))
    # the external loader reads only the columns it needs from the same file
    want, got = load_external(plain, schema), load_external(marked, schema)
    assert_same_arrays((got.group_codes, got.x), (want.group_codes, want.x))


def load_peak(path, schema) -> int:
    """tracemalloc peak, in bytes, of one load_internal call, whether it
    returns or raises a DataError."""
    tracemalloc.start()
    try:
        with contextlib.suppress(DataError):
            load_internal(path, schema)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bad_last_cell", [False, True], ids=["well-formed", "bad-last-cell"])
def test_loading_memory_is_the_arrays_plus_one_chunk(tmp_path, bad_last_cell):
    schema = two_char_schema(covs=tuple(f"x{j}" for j in range(10)))
    ds = random_dataset(schema, np.arange(20_000) % 4, seed=19)
    path, chunk = tmp_path / "internal.csv", tmp_path / "chunk.csv"
    write_internal(ds, path)
    write_internal(ds.take(np.arange(dataset.CHUNK_ROWS)), chunk)
    chunk_peak = load_peak(chunk, schema)  # also the warm-up call
    loaded = load_internal(path, schema)
    array_bytes = sum(a.nbytes for a in (loaded.group_codes, loaded.d, loaded.y, loaded.s,
                                         loaded.x))
    if bad_last_cell:  # the error path is bounded the same way
        write_cells(path, ds, [(20_000, "x9", "abc")])
        with pytest.raises(DataError) as raised:
            load_internal(path, schema)
        assert str(raised.value) == f"{path}: non-numeric value 'abc' for x9 in row 20000"
    # the chunk arrays and their concatenation, plus one chunk's strings;
    # holding every row's cell strings at once takes about ten times the arrays
    assert load_peak(path, schema) < 3 * array_bytes + chunk_peak


CHUNK = 7  # rows per parse chunk in the cross-chunk cases below


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(dataset, "CHUNK_ROWS", CHUNK)


def loaders_with_columns(schema):
    return ((load_internal, schema.internal_columns), (load_external, schema.external_columns))


def write_cells(path, ds, edits=(), lineterminator="\n"):
    """Write ds as an internal CSV, then set the cells edits names as
    (row, column, cell), rows counted from 1, or cut or pad a row to n cells
    with (row, None, n)."""
    write_internal(ds, path)
    with open(path, encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    for row, column, cell in edits:
        if column is None:
            rows[row - 1] = (rows[row - 1] + ["0"] * cell)[:cell]
        else:
            rows[row - 1][header.index(column)] = cell
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator=lineterminator).writerows([header, *rows])


@pytest.mark.parametrize("cells", [3, 8])
@pytest.mark.parametrize("earlier", [[], [(2, "x1", "abc")]], ids=["alone", "after-a-bad-cell"])
def test_a_row_of_the_wrong_width_in_a_later_chunk_wins(tmp_path, small_chunks, cells, earlier):
    schema = two_char_schema(covs=("x1", "x2"))
    ds = random_dataset(schema, np.arange(4 * CHUNK) % 4, seed=20)
    path = tmp_path / "bad.csv"
    for row in (2 * CHUNK + 1, 3 * CHUNK):
        write_cells(path, ds, [*earlier, (row, None, cells)])
        for load, _ in loaders_with_columns(schema):
            with pytest.raises(DataError) as raised:
                load(path, schema)
            assert str(raised.value) == f"{path}: row {row} has {cells} cells; the header has 7"


LAST = 3 * CHUNK + 2  # rows of the file in the chunk-edge cases; the last chunk is short


@pytest.mark.parametrize("row", [CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1, LAST])
@pytest.mark.parametrize("column,cell,message", [
    ("x2", "abc", "non-numeric value 'abc' for x2 in row {row}"),
    ("x1", "nan", "non-numeric value 'nan' for x1 in row {row}"),
    ("x1", "", "empty x1 cell in row {row}"),
    ("y", "1.0", "non-binary value '1.0' for y in row {row}"),
    ("a2", "9", "unknown level '9' for a2 in row {row}"),
])
def test_a_bad_cell_at_a_chunk_edge_raises_the_per_row_error(tmp_path, small_chunks, row, column,
                                                             cell, message):
    schema = two_char_schema(covs=("x1", "x2"))
    ds = random_dataset(schema, np.arange(LAST) % 4, seed=21)
    path = tmp_path / "bad.csv"
    edits = [(row, column, cell)]
    if row < LAST:
        edits.append((LAST, "x2", "late"))  # a later bad cell: the first one is named
    write_cells(path, ds, edits)
    for load, columns in loaders_with_columns(schema):
        if column not in columns:
            continue
        if load is load_external and message.startswith("unknown level"):
            message = ("external level '{cell}' for {column} in row {row} "
                       "not present in the internal schema")
        with pytest.raises(DataError) as raised:
            load(path, schema)
        assert str(raised.value) == f"{path}: " + message.format(row=row, cell=cell,
                                                                 column=column)


def test_the_first_bad_cell_of_a_chunk_is_named(tmp_path, small_chunks):
    # row 4 holds two bad cells and row 6 a third, all in the chunk of rows
    # 1-7: an earlier row wins, and within a row the earlier column
    schema = two_char_schema(covs=("x1", "x2"))
    ds = random_dataset(schema, np.arange(CHUNK) % 4, seed=24)
    path = tmp_path / "bad.csv"
    write_cells(path, ds, [(4, "x1", "abc"), (4, "s", "2"), (6, "a1", "9")])
    with pytest.raises(DataError) as raised:
        load_internal(path, schema)
    assert str(raised.value) == f"{path}: non-binary value '2' for s in row 4"
    with pytest.raises(DataError) as raised:  # the external file has no s column
        load_external(path, schema)
    assert str(raised.value) == f"{path}: non-numeric value 'abc' for x1 in row 4"


def test_quoted_cells_holding_commas_across_chunks(tmp_path, small_chunks):
    schema = SchemaSpec(characteristics=(Characteristic("a1", ("0", "1,2")),
                                         Characteristic("a2", ("a, b", "c"))),
                        treatment="d", outcome="y", prediction="s", covariates=("x1", "x2"))
    ds = random_dataset(schema, np.arange(3 * CHUNK) % 4, seed=22)
    path = tmp_path / "quoted.csv"
    write_cells(path, ds)
    assert '"1,2"' in path.read_text(encoding="utf-8")
    for load, columns in loaders_with_columns(schema):
        b = 3 if load is load_internal else 0
        codes, _, x = parsed_by_row(path, schema, columns, columns[2:2 + b], columns[2 + b:])
        got = load(path, schema)
        assert_same_arrays((got.group_codes, got.x), (codes, x))
    write_cells(path, ds, [(CHUNK + 1, "x2", "1,5")])
    with pytest.raises(DataError) as raised:
        load_internal(path, schema)
    assert str(raised.value) == f"{path}: non-numeric value '1,5' for x2 in row {CHUNK + 1}"


def test_crlf_line_ends_load_as_lf_ones(tmp_path, small_chunks):
    schema = two_char_schema(covs=("x1", "x2"))
    ds = random_dataset(schema, np.arange(2 * CHUNK + 3) % 4, seed=23)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_cells(lf, ds)
    write_cells(crlf, ds, lineterminator="\r\n")
    assert crlf.read_bytes() == lf.read_bytes().replace(b"\n", b"\r\n")
    want, got = load_internal(lf, schema), load_internal(crlf, schema)
    assert_same_arrays((got.group_codes, got.d, got.y, got.s, got.x),
                       (want.group_codes, want.d, want.y, want.s, want.x))
    write_cells(crlf, ds, [(CHUNK + 1, "s", "")], lineterminator="\r\n")
    with pytest.raises(DataError) as raised:
        load_internal(crlf, schema)
    assert str(raised.value) == f"{crlf}: empty s cell in row {CHUNK + 1}"


def test_header_only_files(tmp_path, small_chunks):
    schema = two_char_schema(covs=("x1", "x2"))
    path = tmp_path / "header.csv"
    write_csv(path, schema.internal_columns, [])
    external = load_external(path, schema)
    assert external.group_codes.shape == (0,) and external.x.shape == (0, 2)
    with pytest.raises(DataError) as raised:
        load_internal(path, schema)
    assert str(raised.value) == f"{path}: no data rows; an audit needs at least one"
    # a missing column still comes first
    write_csv(path, schema.internal_columns[:-1], [])
    with pytest.raises(DataError, match="missing column 'x2'"):
        load_internal(path, schema)


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
    code = schema.level_codes
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
    counts = {g: np.zeros((2, 2, 2), dtype=np.int64) for g in ds.schema.group_labels}
    groups = ds.schema.group_labels
    for i in range(ds.n):
        counts[groups[ds.group_codes[i]]][ds.d[i], ds.s[i], ds.y[i]] += 1
    return counts


def test_subgroup_counts_equal_the_loop_reference_with_empty_and_singleton_groups():
    schema = SchemaSpec(characteristics=(Characteristic("a1", ("0", "1", "2")),
                                         Characteristic("a2", ("0", "1"))),
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
    assert schema.group_labels == ("0|0", "0|1", "1|0", "1|1")
    assert list(schema.level_codes.values()) == list(range(schema.n_groups))
    assert ["|".join(levels) for levels in schema.level_codes] == list(schema.group_labels)
