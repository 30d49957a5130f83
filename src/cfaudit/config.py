"""Strict codec between the config dataclasses and JSON objects.

Encoding walks ``dataclasses.fields``: nested dataclasses become objects, and
tuples and arrays become lists. Decoding is its inverse. It rejects any key
the dataclass does not declare and any value of the wrong JSON type, naming
the dotted key path and the value, so a misspelt or mistyped setting stops a
run before anything is fitted instead of being ignored. Booleans must be JSON
booleans, and a float setting accepts a JSON integer. ``read_json`` is the
one reader of the JSON files a run takes.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from pathlib import Path

import numpy as np


class ConfigError(Exception):
    """A run config that does not decode; the message names the key path."""


def check_choice(name: str, value, choices) -> None:
    """Raise ValueError unless value is one of choices."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(map(repr, choices))}; "
                         f"got {value!r}")


def check_at_least(name: str, value, low) -> None:
    """Raise ValueError unless value >= low; NaN is not."""
    if not value >= low:
        raise ValueError(f"{name} must be at least {low}; got {value!r}")


def check_level(level: float) -> float:
    """The upper quantile point q = 1 - (1 - level) / 2 of a two-sided
    interval. ValueError unless level lies in (0, 1) and q rounds strictly
    between 1/2 and 1: within about 2^-53 of 0 or 1 it does not, and the
    t multiplier would be 0 or inf, turning every interval into a point or
    into [0, 1]."""
    q = 1.0 - (1.0 - level) / 2.0
    if not (0.0 < level < 1.0 and 0.5 < q < 1.0):
        raise ValueError(f"level must lie in (0, 1), with 1 - (1 - level) / 2 "
                         f"strictly between 1/2 and 1 as a float; got {level!r}")
    return q


def read_json(path, what: str):
    """The JSON value of a run config, a manifest or a schema file, read
    strictly. Text that is not UTF-8 or not JSON, NaN or Infinity (which the
    strict JSON outputs cannot hold) and a key repeated within one object (of
    which json.load would keep the last copy) raise ConfigError naming what
    the file is. A missing file raises FileNotFoundError."""
    def non_finite(name):
        raise ConfigError(f"{what} is not valid JSON: {name} is not a JSON number")

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{what}: key {key!r} appears twice in one object")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_constant=non_finite, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{what} is not UTF-8 text: {err}") from None


def encode(value):
    """The JSON form of a config dataclass, or of a value inside one."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    return value


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def decode(cls, raw, path: str = ""):
    """Build the dataclass cls from the JSON object raw found at key path
    `path` of a run config. Absent keys take the dataclass defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {raw!r}")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigError(f"unknown key {_join(path, key)}")
        kwargs[key] = _decode_value(hints[key], value, _join(path, key))
    for name, f in fields.items():
        if (name not in kwargs and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigError(f"missing required key {_join(path, name)}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{path or 'config'}: {err}") from None


# the JSON types each scalar annotation accepts
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), Path: (str,),
            dict: (dict,)}


def _numbers(value) -> bool:
    return all(_numbers(v) if isinstance(v, list)
               else isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)


def _decode_value(tp, value, path: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, path)
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        item = typing.get_args(tp)[0]
        return tuple(_decode_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is np.ndarray and isinstance(value, list) and _numbers(value):
        try:
            return np.array(value, dtype=np.float64)
        except ValueError:  # ragged nesting
            pass
    accepted = _SCALARS.get(tp, ())
    if isinstance(value, accepted) and (tp is bool or not isinstance(value, bool)):
        return tp(value)
    name = getattr(tp, "__name__", str(tp))
    raise ConfigError(f"{path}: expected {name}, got {value!r}")
