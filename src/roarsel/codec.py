"""One JSON form for every persisted dataclass, read from its annotations.

Four files are the codec form of one dataclass each: the run config and its
``effective.json`` echo (``RunConfig``), a curve file (``DeletionCurve``),
``selection.json`` (``SelectionReport``) and a dataset's ``manifest``
(``FeatureSchema``). ``encode`` turns a dataclass into its JSON value field
by field: enums travel as their values, frozensets as sorted lists, tuples
as lists, and a dict keyed by tuples (``PlantSpec.cell_weights``) as sorted
``[*key, value]`` rows. ``decode`` builds the value back from the resolved field
annotations and checks every JSON value against its field's type, so every
file is read by the same rules:

- a count (``int``) is a JSON integer, never a bool or a float;
- a real (``float``) is a finite JSON number, kept as given, so an integer
  stays an integer and an echo keeps its bytes;
- ``null`` is accepted only for an ``Optional`` field, and for a field with
  a ``default_factory`` block, where it means the default;
- unknown keys are rejected, and every error is a ``ConfigError`` that names
  the key by its path from the root
  (``config.grid[1].hidden_size must be an integer, got 4.0``).
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from dataclasses import MISSING
from enum import Enum
from functools import cache

from .errors import ConfigError


def encode(obj):
    """The JSON value of a dataclass, or of any value one of its fields holds."""
    if dataclasses.is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, dict):
        return [[*key, encode(value)] for key, value in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


@cache
def _fields(cls) -> dict[str, tuple[object, object, object]]:
    """Each field's resolved type, default and default factory."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default, f.default_factory)
            for f in dataclasses.fields(cls)}


# the JSON types a scalar field takes, and how its error reads
_SCALARS = {int: ({int}, "an integer"), float: ({int, float}, "a number"),
            str: ({str}, "a string")}


def _valid(tp, items: list) -> bool:
    """Every item is a JSON value of the scalar type ``tp``; a real is also
    finite, so the NaN and Infinity that Python's parser reads are not."""
    if not set(map(type, items)) <= _SCALARS[tp][0]:
        return False
    try:
        return tp is not float or all(map(math.isfinite, items))
    except OverflowError:  # an integer beyond the range of a float
        return False


def _object(cls, raw, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    fields = _fields(cls)
    extra = sorted(set(raw) - set(fields))
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(extra)}")
    values = {}
    for name, (tp, default, factory) in fields.items():
        if name not in raw:
            if default is MISSING and factory is MISSING:
                raise ConfigError(f"{where} needs {name}")
        elif raw[name] is not None or factory is MISSING:
            values[name] = decode(tp, raw[name], f"{where}.{name}")
    return cls(**values)


def _list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be a list, got {raw!r}")
    return raw


def decode(tp, raw, where: str):
    """Build a value of the annotated type ``tp`` from its JSON form ``raw``.

    ``where`` names the value in errors: a dataclass's fields are named
    ``where.field`` and list entries ``where[i]``, while a list of numbers is
    checked in one pass and named as a whole.
    """
    if tp in _SCALARS and raw is not None:
        if not _valid(tp, [raw]):
            raise ConfigError(f"{where} must be {_SCALARS[tp][1]}, got {raw!r}")
        return raw
    if dataclasses.is_dataclass(tp):
        return _object(tp, raw, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = (a for a in args if a is not type(None))
        return None if raw is None else decode(inner, raw, where)
    if raw is None:
        raise ConfigError(f"{where} must not be null")
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(raw)
        except ValueError:
            known = ", ".join(m.value for m in tp)
            raise ConfigError(f"{where} must be one of {known}, got {raw!r}") from None
    if origin in (list, frozenset) or origin is tuple and args[1:] == (Ellipsis,):
        items = _list(raw, where)
        if args[0] in _SCALARS:
            if not _valid(args[0], items):
                raise ConfigError(f"{where} must be {_SCALARS[args[0]][1]}, got {raw!r}")
        else:
            items = [decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(items)]
        return origin(items)
    if origin is tuple:
        if len(_list(raw, where)) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} values, got {raw!r}")
        return tuple(decode(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, raw)))
    if origin is dict:
        key, value = args
        rows = decode(tuple[tuple[(*typing.get_args(key), value)], ...], raw, where)
        table = {}
        for row in rows:
            if row[:-1] in table:
                raise ConfigError(f"{where} repeats the key {list(row[:-1])}")
            table[row[:-1]] = row[-1]
        return table
    raise TypeError(f"{where}: no JSON form for {tp!r}")
