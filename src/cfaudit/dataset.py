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
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import decode


class DataError(Exception):
    """Base class for schema / data validation failures."""


class MissingColumn(DataError):
    pass


class NonBinaryValue(DataError):
    pass


class UnknownLevel(DataError):
    pass


class MissingValue(DataError):
    pass


class LevelSetMismatch(DataError):
    pass


class NonNumericValue(DataError):
    pass


class DuplicateColumn(DataError):
    pass


@dataclass(frozen=True)
class Characteristic:
    """A protected characteristic: its column name and its levels, in order."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError(f"characteristic {self.name!r} has no levels")
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
        with open(path, "r", encoding="utf-8") as f:
            return decode(cls, json.load(f), "schema")


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


def _read_cells(path, columns) -> list[list[str]]:
    """The stripped cells of each data row of a CSV file, in the order of
    columns. Raises MissingColumn for a column the header lacks,
    DuplicateColumn for one it names more than once, and MissingValue for a
    row with more or fewer cells than the header."""
    # utf-8-sig drops the byte-order mark that spreadsheet programs write
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise MissingColumn(f"{path}: empty file, header row required")
    header = rows[0]
    for name in columns:
        if name not in header:
            raise MissingColumn(f"{path}: missing column '{name}'")
        if header.count(name) > 1:
            raise DuplicateColumn(f"{path}: the header names column '{name}' more than once")
    for row_num, row in enumerate(rows[1:], 1):
        if len(row) != len(header):
            raise MissingValue(f"row {row_num} has {len(row)} cells; "
                               f"the header has {len(header)}")
    pos = [header.index(name) for name in columns]
    return [[row[p].strip() for p in pos] for row in rows[1:]]


def _parse_binary(cell, column, row_num):
    if cell == "":
        raise MissingValue(f"empty {column} cell in row {row_num}")
    if cell not in ("0", "1"):
        raise NonBinaryValue(f"non-binary value '{cell}' for {column} in row {row_num}")
    return int(cell)


def _parse_float(cell, column, row_num):
    """A finite float; nan and inf are rejected as non-numeric."""
    if cell == "":
        raise MissingValue(f"empty {column} cell in row {row_num}")
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise NonNumericValue(f"non-numeric value '{cell}' for {column} in row {row_num}")
    return value


def _group_code(cells, schema: SchemaSpec, row_num, unknown, message) -> int:
    """Group code of a row's level cells. A level outside the schema raises
    the error class unknown with message formatted from cell, char and row."""
    for char, cell in zip(schema.characteristics, cells):
        if cell == "":
            raise MissingValue(f"empty {char.name} cell in row {row_num}")
        if cell not in char.levels:
            raise unknown(message.format(cell=cell, char=char.name, row=row_num))
    return schema.level_codes[tuple(cells)]


def _parse_by_row(rows, schema: SchemaSpec, binaries, covariates, unknown, message):
    """(group codes, binary block, covariate block) of the rows, one cell at a
    time: the first bad cell raises, with its row number."""
    k, b = len(schema.characteristics), len(binaries)
    n = len(rows)
    group_codes = np.empty(n, dtype=np.int64)
    binary = np.empty((n, b), dtype=np.int8)
    x = np.empty((n, len(covariates)), dtype=np.float64)
    for i, row in enumerate(rows):
        row_num = i + 1
        group_codes[i] = _group_code(row[:k], schema, row_num, unknown, message)
        binary[i] = [_parse_binary(cell, name, row_num)
                     for cell, name in zip(row[k:], binaries)]
        x[i] = [_parse_float(cell, name, row_num)
                for cell, name in zip(row[k + b:], covariates)]
    return group_codes, binary, x


_BINARY = {"0": 0, "1": 1}

# Data rows per parse chunk: a load holds one chunk's cell strings at a time,
# so its memory is the arrays plus a chunk, not the whole file's text.
CHUNK_ROWS = 1 << 9


def _parse_chunks(path, columns, schema: SchemaSpec, b: int, p: int):
    """_parse_by_row's arrays for the file at path, read CHUNK_ROWS rows at a
    time; each chunk is parsed in bulk with one level lookup per row, one
    float() pass over its covariate cells and one finiteness check. Returns
    None at the first anomaly (a bad header, a row of the wrong width, a bad
    cell) and for a file with no data rows: _read_cells and _parse_by_row then
    read the file again and raise the error naming the first bad cell."""
    k, level = len(schema.characteristics), schema.level_codes.get
    codes, binary, x = [], [], []
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if any(header.count(name) != 1 for name in columns):
            return None
        width, pos = len(header), [header.index(name) for name in columns]
        while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
            if any(len(row) != width for row in chunk):
                return None
            rows = [[row[i].strip() for i in pos] for row in chunk]
            n = len(rows)
            codes.append(np.array([level(tuple(row[:k]), -1) for row in rows], dtype=np.int64))
            binary.append(np.array([_BINARY.get(cell, -1) for row in rows
                                    for cell in row[k:k + b]], dtype=np.int8).reshape(n, b))
            try:  # fromiter keeps no list of the floats
                x.append(np.fromiter(
                    map(float, itertools.chain.from_iterable(row[k + b:] for row in rows)),
                    dtype=np.float64, count=n * p).reshape(n, p))
            except ValueError:  # a cell that float() cannot read
                return None
            if (codes[-1] < 0).any() or (binary[-1] < 0).any() or not np.isfinite(x[-1]).all():
                return None
    if not codes:
        return None
    return np.concatenate(codes), np.concatenate(binary), np.concatenate(x)


def _load(path, columns, schema: SchemaSpec, binaries, covariates, unknown, message):
    """(group codes, binary block, covariate block) of a CSV file: parsed in
    chunks, or row by row when a chunk finds an anomaly, so that an error
    names the first bad cell and its row."""
    arrays = _parse_chunks(path, columns, schema, len(binaries), len(covariates))
    if arrays is None:
        arrays = _parse_by_row(_read_cells(path, columns), schema, binaries, covariates,
                               unknown, message)
    return arrays


def load_internal(path, schema: SchemaSpec) -> AuditDataset:
    """Load and validate an internal audit CSV against the schema.

    Raises MissingColumn, NonBinaryValue, UnknownLevel, MissingValue, or
    NonNumericValue with the offending row number (1-based, header excluded),
    and MissingValue for a file with no data rows.
    """
    group_codes, binary, x = _load(
        path, schema.internal_columns, schema,
        (schema.treatment, schema.outcome, schema.prediction), schema.covariates,
        UnknownLevel, "unknown level '{cell}' for {char} in row {row}")
    if not len(group_codes):
        raise MissingValue(f"{path}: no data rows; an audit needs at least one")
    d, y, s = np.ascontiguousarray(binary.T)
    return AuditDataset(schema=schema, group_codes=group_codes, d=d, y=y, s=s, x=x)


def load_external(path, schema: SchemaSpec) -> ExternalDataset:
    """Load an external CSV: group labels plus the declared shared covariates.

    A group label absent from the internal schema raises LevelSetMismatch.
    A header-only file yields an empty (valid) dataset.
    """
    group_codes, _, x = _load(
        path, schema.external_columns, schema, (), schema.external_covariates,
        LevelSetMismatch,
        "external level '{cell}' for {char} in row {row} not present in the internal schema")
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
