"""Tabular data model: schema-driven CSV loading, validation, and subgroup indexing.

Internal audit data carries protected-group labels, a binary treatment D,
binary outcome Y, binary prediction S, and a fixed-width covariate block.
External data carries only group labels and a declared shared subset of the
covariates. Complete cases are required; rows with missing cells are
rejected (impute upstream if needed).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import decode, read_json


class DataError(Exception):
    """A CSV file that does not load; the message names the file and the
    row or column at fault."""


@dataclass(frozen=True)
class Characteristic:
    """A protected characteristic: its column name and its levels, in order."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError(f"characteristic {self.name!r} has no levels")
        if "" in self.levels:
            raise ValueError(f"characteristic {self.name!r} has an empty level; "
                             "an empty cell is a missing value")
        repeated = [level for i, level in enumerate(self.levels) if level in self.levels[:i]]
        if repeated:
            raise ValueError(f"characteristic {self.name!r} repeats level {repeated[0]!r}")


@dataclass(frozen=True)
class SchemaSpec:
    """The schema file, and the column layout of both CSV files: protected
    characteristics with their level sets, the D/Y/S column names, and
    covariate columns.

    ``external_covariates`` is the declared subset of ``covariates`` shared
    with external data; None, the default, shares the full covariate list.
    """

    characteristics: tuple[Characteristic, ...]
    treatment: str
    outcome: str
    prediction: str
    covariates: tuple[str, ...]
    external_covariates: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.characteristics:
            raise ValueError("at least one protected characteristic required")
        keys = ([f"characteristics[{i}].name" for i in range(len(self.characteristics))]
                + ["treatment", "outcome", "prediction"]
                + [f"covariates[{j}]" for j in range(len(self.covariates))])
        first = {}  # column -> the key that names it first
        for key, column in zip(keys, self.internal_columns):
            if column in first:
                raise ValueError(f"column {column!r} is both {first[column]} and {key}")
            first[column] = key
        if self.external_covariates is None:
            object.__setattr__(self, "external_covariates", self.covariates)
        elif not self.external_covariates:
            raise ValueError("external_covariates must name at least one covariate; "
                             "leave the key out to share them all")
        unknown = set(self.external_covariates) - set(self.covariates)
        if unknown:
            raise ValueError(f"external covariates not in internal schema: {sorted(unknown)}")
        seen = {"overall"}  # the report's row for all groups together
        for label in self.group_labels:
            if label in seen:
                raise ValueError(f"group label {label!r} names more than one report row: "
                                 "the levels joined by '|' must differ between groups "
                                 "and from 'overall'")
            seen.add(label)

    @property
    def characteristic_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.characteristics)

    @property
    def level_sets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c.levels for c in self.characteristics)

    @property
    def internal_columns(self) -> tuple[str, ...]:
        """The internal CSV's columns: characteristics, D, Y, S, covariates."""
        return (*self.characteristic_names, self.treatment, self.outcome, self.prediction,
                *self.covariates)

    @property
    def external_columns(self) -> tuple[str, ...]:
        """The external CSV's columns: characteristics, external covariates."""
        return (*self.characteristic_names, *self.external_covariates)

    @cached_property
    def shared_index(self) -> tuple[int, ...]:
        """Position in ``covariates`` of each external covariate."""
        position = {c: j for j, c in enumerate(self.covariates)}
        return tuple(position[c] for c in self.external_covariates)

    @cached_property
    def level_codes(self) -> dict[tuple[str, ...], int]:
        """Group code of each level combination, in level-set product order."""
        return {levels: code for code, levels in enumerate(itertools.product(*self.level_sets))}

    @cached_property
    def group_labels(self) -> tuple[str, ...]:
        """Each group's name in the outputs, in code order: its levels joined by "|"."""
        return tuple("|".join(levels) for levels in self.level_codes)

    @property
    def n_groups(self) -> int:
        return len(self.level_codes)

    @classmethod
    def from_json(cls, path) -> "SchemaSpec":
        """Decode a schema file strictly; raises ConfigError naming the key path."""
        return decode(cls, read_json(path, "schema"), "schema")


def _check_codes(codes, n_groups: int, error=ValueError) -> np.ndarray:
    """codes as an array; raises error unless each lies in [0, n_groups)."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= n_groups):
        raise error(f"group codes must lie in [0, {n_groups}); "
                    f"got {codes.min()}..{codes.max()}")
    return codes


@dataclass
class AuditDataset:
    """Columnar internal dataset. Immutable after construction; group labels
    are interned to the integer codes of ``schema.level_codes``."""

    schema: SchemaSpec
    group_codes: np.ndarray  # (n,) int codes of schema.level_codes
    d: np.ndarray  # (n,) 0/1
    y: np.ndarray  # (n,) 0/1
    s: np.ndarray  # (n,) 0/1
    x: np.ndarray  # (n, p) float

    def __post_init__(self):
        n = len(self.group_codes)
        for name, col in (("d", self.d), ("y", self.y), ("s", self.s)):
            if len(col) != n:
                raise ValueError(f"column {name} has length {len(col)}, expected {n}")
        if self.x.shape != (n, len(self.schema.covariates)):
            raise ValueError("covariate block does not match schema")
        _check_codes(self.group_codes, self.schema.n_groups)

    @property
    def n(self) -> int:
        return len(self.group_codes)

    def take(self, indices) -> "AuditDataset":
        """Row subset (with repetition allowed) sharing the same schema."""
        idx = np.asarray(indices, dtype=int)
        return AuditDataset(
            schema=self.schema,
            group_codes=self.group_codes[idx],
            d=self.d[idx],
            y=self.y[idx],
            s=self.s[idx],
            x=self.x[idx],
        )


@dataclass
class ExternalDataset:
    """Columnar external dataset: group labels plus the shared covariates only."""

    schema: SchemaSpec
    group_codes: np.ndarray  # (n,) int codes of schema.level_codes
    x: np.ndarray  # (n, p') over schema.external_covariates

    def __post_init__(self):
        n = len(self.group_codes)
        if self.x.shape != (n, len(self.schema.external_covariates)):
            raise ValueError(f"covariate block has shape {self.x.shape}, expected "
                             f"({n}, {len(self.schema.external_covariates)})")
        _check_codes(self.group_codes, self.schema.n_groups)

    @property
    def n(self) -> int:
        return len(self.group_codes)


_BINARY = {"0": 0, "1": 1}


def _finite(cell) -> bool:
    """Whether float() reads cell as a finite number; nan and inf are not."""
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _raise_first_bad_cell(path, first, rows, schema: SchemaSpec, binaries, covariates,
                          unknown):
    """Raise DataError for the first bad cell of rows, numbered from first,
    in column order within a row: an empty cell, then a level outside the
    schema (with the message unknown, formatted from cell, column and row),
    a non-binary or a non-numeric value. _load calls it only on a chunk that
    its bulk parse flagged, and each bulk check is as strict as the rule
    here, so such a chunk always holds a cell that raises."""
    rules = ([(c.name, c.levels.__contains__, unknown) for c in schema.characteristics]
             + [(name, _BINARY.__contains__,
                 "non-binary value '{cell}' for {column} in row {row}") for name in binaries]
             + [(name, _finite,
                 "non-numeric value '{cell}' for {column} in row {row}") for name in covariates])
    for row_num, row in enumerate(rows, first):
        for (column, valid, text), cell in zip(rules, row):
            if cell == "":
                raise DataError(f"{path}: empty {column} cell in row {row_num}")
            if not valid(cell):
                raise DataError(f"{path}: " + text.format(cell=cell, column=column, row=row_num))


# Data rows per parse chunk: a load holds one chunk's cell strings at a time,
# so its memory is the arrays plus a chunk, not the whole file's text.
CHUNK_ROWS = 1 << 9


def _row_chunks(path, columns):
    """(first row number, stripped cells in the order of columns) for each
    CHUNK_ROWS data rows of a CSV file, rows counted from 1 after the header.
    Raises DataError, naming the file, for an empty file, a column the
    header lacks or names more than once, the first row with more or fewer
    cells than the header, a byte that is not UTF-8 and a line the csv
    reader rejects."""
    # utf-8-sig drops the byte-order mark that spreadsheet programs write
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, header row required")
            for name in columns:
                if name not in header:
                    raise DataError(f"{path}: missing column '{name}'")
                if header.count(name) > 1:
                    raise DataError(f"{path}: the header names column '{name}' "
                                    "more than once")
            width, pos = len(header), [header.index(name) for name in columns]
            first = 1
            while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
                for row_num, row in enumerate(chunk, first):
                    if len(row) != width:
                        raise DataError(f"{path}: row {row_num} has {len(row)} cells; "
                                        f"the header has {width}")
                yield first, [[row[i].strip() for i in pos] for row in chunk]
                first += len(chunk)
        except UnicodeDecodeError as err:  # decoded by blocks, so its line is unknown
            raise DataError(f"{path}: not UTF-8 text: {err.reason} "
                            f"{err.object[err.start:err.end]!r}") from None
        except csv.Error as err:
            raise DataError(f"{path}: line {reader.line_num}: {err}") from None


def _load(path, columns, schema: SchemaSpec, binaries, covariates, unknown):
    """(group codes, binary block, covariate block) of a CSV file, read once.
    Each chunk of _row_chunks is parsed in bulk: one level lookup per row, one
    float() pass over its covariate cells and one finiteness check. A chunk
    with a bad cell goes to _raise_first_bad_cell for the error naming the
    first bad cell and its row. That error is raised once every later row's
    width is checked, so that a row of the wrong width anywhere wins."""
    k, b, p = len(schema.characteristics), len(binaries), len(covariates)
    level = schema.level_codes.get
    # the zero-row parts give a header-only file arrays of the right shapes
    codes, binary, x = [np.empty(0, np.int64)], [np.empty((0, b), np.int8)], [np.empty((0, p))]
    error = None
    for first, rows in _row_chunks(path, columns):
        if error is not None:
            continue  # the later rows are still read for their widths
        n = len(rows)
        chunk_codes = np.array([level(tuple(row[:k]), -1) for row in rows], dtype=np.int64)
        chunk_binary = np.array([_BINARY.get(cell, -1) for row in rows
                                 for cell in row[k:k + b]], dtype=np.int8).reshape(n, b)
        try:  # fromiter keeps no list of the floats
            chunk_x = np.fromiter(
                map(float, itertools.chain.from_iterable(row[k + b:] for row in rows)),
                dtype=np.float64, count=n * p).reshape(n, p)
        except ValueError:  # a cell that float() cannot read
            chunk_x = None
        if (chunk_x is None or (chunk_codes < 0).any() or (chunk_binary < 0).any()
                or not np.isfinite(chunk_x).all()):
            try:
                _raise_first_bad_cell(path, first, rows, schema, binaries, covariates, unknown)
            except DataError as err:
                error = err
                continue
        codes.append(chunk_codes)
        binary.append(chunk_binary)
        x.append(chunk_x)
    if error is not None:
        raise error
    return np.concatenate(codes), np.concatenate(binary), np.concatenate(x)


def load_internal(path, schema: SchemaSpec) -> AuditDataset:
    """Load and validate an internal audit CSV against the schema.

    Raises DataError for a bad header, for a missing, unknown, non-binary
    or non-numeric cell with the offending row number (1-based, header
    excluded), and for a file with no data rows. Every message starts with
    the path.
    """
    group_codes, binary, x = _load(
        path, schema.internal_columns, schema,
        (schema.treatment, schema.outcome, schema.prediction), schema.covariates,
        "unknown level '{cell}' for {column} in row {row}")
    if not len(group_codes):
        raise DataError(f"{path}: no data rows; an audit needs at least one")
    d, y, s = np.ascontiguousarray(binary.T)
    return AuditDataset(schema=schema, group_codes=group_codes, d=d, y=y, s=s, x=x)


def load_external(path, schema: SchemaSpec) -> ExternalDataset:
    """Load an external CSV: group labels plus the declared shared covariates.

    Raises DataError as load_internal does; the message for a group label
    absent from the internal schema says so. A header-only file yields an
    empty (valid) dataset.
    """
    group_codes, _, x = _load(
        path, schema.external_columns, schema, (), schema.external_covariates,
        "external level '{cell}' for {column} in row {row} not present in the internal schema")
    return ExternalDataset(schema=schema, group_codes=group_codes, x=x)


def _write_rows(path, ds, columns, cells) -> None:
    """Write a CSV with header columns: each row's group levels, then its cells."""
    levels = list(ds.schema.level_codes)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for code, row in zip(ds.group_codes.tolist(), cells):
            writer.writerow([*levels[code], *row])


def write_internal(ds: AuditDataset, path) -> None:
    """Serialize an AuditDataset back to CSV (round-trips through load_internal)."""
    binary = np.column_stack([ds.d, ds.y, ds.s]).astype(np.int64).tolist()
    cells = ([*map(str, dys), *map(repr, x)] for dys, x in zip(binary, ds.x.tolist()))
    _write_rows(path, ds, ds.schema.internal_columns, cells)


def write_external(ds: ExternalDataset, path) -> None:
    _write_rows(path, ds, ds.schema.external_columns, (map(repr, x) for x in ds.x.tolist()))


def subgroup_counts(ds: AuditDataset) -> np.ndarray:
    """Confusion-cell counts per group: a (K, 2, 2, 2) array indexed
    [group code, d, s, y] over all K schema groups (all-zero for a group
    absent from the data); the counts add up to n.
    """
    shape = (ds.schema.n_groups, 2, 2, 2)
    cells = np.ravel_multi_index((ds.group_codes, ds.d, ds.s, ds.y), shape)
    return np.bincount(cells, minlength=np.prod(shape)).reshape(shape)
