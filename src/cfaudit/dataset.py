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
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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


@dataclass(frozen=True)
class GroupKey:
    """A realized protected-characteristic vector; hashable, usable as a dict key."""

    levels: tuple[str, ...]

    def label(self) -> str:
        return "|".join(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)


def _require(raw, keys, where: str) -> None:
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object, got {raw!r}")
    for key in keys:
        if key not in raw:
            raise ValueError(f"{where}: missing required key {key!r}")


@dataclass(frozen=True)
class SchemaSpec:
    """Column layout of a dataset: protected characteristics with their level
    sets, the D/Y/S column names, and covariate columns.

    ``external_covariates`` is the declared subset of ``covariates`` shared
    with external data; it defaults to the full covariate list.
    """

    characteristics: tuple[str, ...]
    level_sets: tuple[tuple[str, ...], ...]
    treatment: str
    outcome: str
    prediction: str
    covariates: tuple[str, ...]
    external_covariates: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.characteristics) != len(self.level_sets):
            raise ValueError("one level set required per characteristic")
        if not self.characteristics:
            raise ValueError("at least one protected characteristic required")
        for char, levels in zip(self.characteristics, self.level_sets):
            repeated = [level for i, level in enumerate(levels) if level in levels[:i]]
            if repeated:
                raise ValueError(f"characteristic {char!r} repeats level {repeated[0]!r}")
        if not self.external_covariates:
            object.__setattr__(self, "external_covariates", self.covariates)
        unknown = set(self.external_covariates) - set(self.covariates)
        if unknown:
            raise ValueError(f"external covariates not in internal schema: {sorted(unknown)}")

    def all_groups(self) -> list[GroupKey]:
        """Every combination of characteristic levels, in level-set product order."""
        return [GroupKey(levels) for levels in itertools.product(*self.level_sets)]

    @cached_property
    def level_codes(self) -> dict[tuple[str, ...], int]:
        """Group code of each level combination: its index in all_groups()."""
        return {levels: code for code, levels in enumerate(itertools.product(*self.level_sets))}

    @property
    def n_groups(self) -> int:
        return len(self.level_codes)

    @classmethod
    def from_json(cls, path) -> "SchemaSpec":
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "SchemaSpec":
        """Raises ValueError naming the first required key the schema lacks."""
        _require(raw, ("characteristics", "treatment", "outcome", "prediction",
                       "covariates"), "schema")
        for i, c in enumerate(raw["characteristics"]):
            _require(c, ("name", "levels"), f"characteristics[{i}]")
        chars = tuple(c["name"] for c in raw["characteristics"])
        levels = tuple(tuple(str(v) for v in c["levels"]) for c in raw["characteristics"])
        return cls(
            characteristics=chars,
            level_sets=levels,
            treatment=raw["treatment"],
            outcome=raw["outcome"],
            prediction=raw["prediction"],
            covariates=tuple(raw["covariates"]),
            external_covariates=tuple(raw.get("external_covariates", raw["covariates"])),
        )

    def to_dict(self) -> dict:
        return {
            "characteristics": [
                {"name": c, "levels": list(ls)}
                for c, ls in zip(self.characteristics, self.level_sets)
            ],
            "treatment": self.treatment,
            "outcome": self.outcome,
            "prediction": self.prediction,
            "covariates": list(self.covariates),
            "external_covariates": list(self.external_covariates),
        }


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
    are interned to integer codes indexing ``schema.all_groups()``."""

    schema: SchemaSpec
    group_codes: np.ndarray  # (n,) int codes into schema.all_groups()
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
    group_codes: np.ndarray  # (n,) int codes into schema.all_groups()
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

    def __len__(self) -> int:
        return self.n


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        rows = list(reader)
    if not rows:
        raise MissingColumn(f"{path}: empty file, header row required")
    return rows[0], rows[1:]


def _column_map(header, needed, path):
    positions = {}
    for name in needed:
        if name not in header:
            raise MissingColumn(f"{path}: missing column '{name}'")
        positions[name] = header.index(name)
    return positions


def _parse_binary(cell, column, row_num):
    if cell == "":
        raise MissingValue(f"empty {column} cell in row {row_num}")
    if cell not in ("0", "1"):
        raise NonBinaryValue(f"non-binary value '{cell}' for {column} in row {row_num}")
    return int(cell)


def _parse_float(cell, column, row_num):
    if cell == "":
        raise MissingValue(f"empty {column} cell in row {row_num}")
    try:
        return float(cell)
    except ValueError:
        raise NonNumericValue(f"non-numeric value '{cell}' for {column} in row {row_num}") from None


def _group_code(row, pos, schema: SchemaSpec, row_num, unknown, message) -> int:
    """Group code of a row's level cells. A level outside the schema raises
    the error class unknown with message formatted from cell, char and row."""
    levels = []
    for char, level_set in zip(schema.characteristics, schema.level_sets):
        cell = row[pos[char]].strip()
        if cell == "":
            raise MissingValue(f"empty {char} cell in row {row_num}")
        if cell not in level_set:
            raise unknown(message.format(cell=cell, char=char, row=row_num))
        levels.append(cell)
    return schema.level_codes[tuple(levels)]


def load_internal(path, schema: SchemaSpec) -> AuditDataset:
    """Load and validate an internal audit CSV against the schema.

    Raises MissingColumn, NonBinaryValue, UnknownLevel, MissingValue, or
    NonNumericValue with the offending row number (1-based, header excluded).
    """
    header, rows = _read_rows(path)
    needed = (
        list(schema.characteristics)
        + [schema.treatment, schema.outcome, schema.prediction]
        + list(schema.covariates)
    )
    pos = _column_map(header, needed, path)

    n = len(rows)
    group_codes = np.empty(n, dtype=np.int64)
    d = np.empty(n, dtype=np.int8)
    y = np.empty(n, dtype=np.int8)
    s = np.empty(n, dtype=np.int8)
    x = np.empty((n, len(schema.covariates)), dtype=np.float64)

    for i, row in enumerate(rows):
        row_num = i + 1
        group_codes[i] = _group_code(row, pos, schema, row_num, UnknownLevel,
                                     "unknown level '{cell}' for {char} in row {row}")
        d[i] = _parse_binary(row[pos[schema.treatment]].strip(), schema.treatment, row_num)
        y[i] = _parse_binary(row[pos[schema.outcome]].strip(), schema.outcome, row_num)
        s[i] = _parse_binary(row[pos[schema.prediction]].strip(), schema.prediction, row_num)
        for j, cov in enumerate(schema.covariates):
            x[i, j] = _parse_float(row[pos[cov]].strip(), cov, row_num)

    return AuditDataset(schema=schema, group_codes=group_codes, d=d, y=y, s=s, x=x)


def load_external(path, schema: SchemaSpec) -> ExternalDataset:
    """Load an external CSV: group labels plus the declared shared covariates.

    A group label absent from the internal schema raises LevelSetMismatch.
    A header-only file yields an empty (valid) dataset.
    """
    header, rows = _read_rows(path)
    needed = list(schema.characteristics) + list(schema.external_covariates)
    pos = _column_map(header, needed, path)

    n = len(rows)
    group_codes = np.empty(n, dtype=np.int64)
    x = np.empty((n, len(schema.external_covariates)), dtype=np.float64)

    for i, row in enumerate(rows):
        row_num = i + 1
        group_codes[i] = _group_code(row, pos, schema, row_num, LevelSetMismatch,
                                     "external level '{cell}' for {char} in row {row} "
                                     "not present in the internal schema")
        for j, cov in enumerate(schema.external_covariates):
            x[i, j] = _parse_float(row[pos[cov]].strip(), cov, row_num)

    return ExternalDataset(schema=schema, group_codes=group_codes, x=x)


def write_internal(ds: AuditDataset, path) -> None:
    """Serialize an AuditDataset back to CSV (round-trips through load_internal)."""
    schema = ds.schema
    groups = schema.all_groups()
    header = (
        list(schema.characteristics)
        + [schema.treatment, schema.outcome, schema.prediction]
        + list(schema.covariates)
    )
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(ds.n):
            row = list(groups[ds.group_codes[i]].levels)
            row += [str(int(ds.d[i])), str(int(ds.y[i])), str(int(ds.s[i]))]
            row += [repr(float(v)) for v in ds.x[i]]
            writer.writerow(row)


def write_external(ds: ExternalDataset, path) -> None:
    schema = ds.schema
    groups = schema.all_groups()
    header = list(schema.characteristics) + list(schema.external_covariates)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(ds.n):
            row = list(groups[ds.group_codes[i]].levels)
            row += [repr(float(v)) for v in ds.x[i]]
            writer.writerow(row)


def subgroup_counts(ds: AuditDataset) -> np.ndarray:
    """Confusion-cell counts per group: a (K, 2, 2, 2) array indexed
    [group code, d, s, y] over all K schema groups (all-zero for a group
    absent from the data); the counts add up to n.
    """
    shape = (ds.schema.n_groups, 2, 2, 2)
    cells = np.ravel_multi_index((ds.group_codes, ds.d, ds.s, ds.y), shape)
    return np.bincount(cells, minlength=np.prod(shape)).reshape(shape)
