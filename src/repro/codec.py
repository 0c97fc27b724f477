"""One JSON codec for every frozen record that leaves a process.

Specs, results and the sweep service's wire messages are dataclasses
whose field annotations say how each value maps to JSON: an ``Enum`` as
its value, a nested :class:`Record` as its own dict, ``tuple``/``list``
fields as lists, ``Optional`` as null, primitives as themselves (a bool
is never an int).  Keys follow field order.

Omission: a field defaulting to ``None`` is left out while ``None``, and
a field marked :data:`OMIT_DEFAULT` is left out while it equals its
default.

Decoding is strict: ``data`` must be an object, every key must name a
field (else a ``TypeError`` naming the key), a missing key takes the
field's default unless the field has none or is marked :data:`REQUIRED`
(else a ``KeyError``), and a value of the wrong type is a ``TypeError``.
Field metadata from :func:`checked` adds a value predicate.

This module imports nothing from ``repro``, so any layer can use it.
"""

from __future__ import annotations

import enum
import functools
import types
import typing
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, fields
from typing import Union

#: Field metadata: the key is written only when it differs from the default.
OMIT_DEFAULT = {"omit_default": True}

#: Field metadata: decoding demands the key although the field has a default.
REQUIRED = {"required": True}


def checked(check, want: str) -> dict:
    """Field metadata: a value predicate applied when decoding."""
    return {"check": check, "want": want}


#: What each primitive annotation demands, for type-error messages.
_WANTS = {
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    dict: "an object",
}


def _encode(value):
    if isinstance(value, enum.Enum):
        return value.value
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value.to_dict()  # a nested record


def _keep(item):
    return item


@functools.cache
def _decoder(kind, name: str):
    """Compile the parser for one field annotation ``kind``."""
    origin = typing.get_origin(kind)
    if origin in (Union, types.UnionType):  # Optional[X]
        (inner,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        parse = _decoder(inner, name)
        return lambda value: None if value is None else parse(value)
    if kind in (tuple, list) or origin in (tuple, list):
        args = typing.get_args(kind)
        parse_item = _decoder(args[0], name) if args else _keep
        container = origin or kind

        def parse_list(value):
            if not isinstance(value, list):
                raise TypeError(f"'{name}' must be a list")
            return container(parse_item(item) for item in value)

        return parse_list
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        return kind
    if hasattr(kind, "from_dict"):  # a nested record
        return kind.from_dict
    accept = (int, float) if kind is float else kind

    def parse_primitive(value):
        # A bool is an int to Python, never to JSON.
        if not isinstance(value, accept) or (
            isinstance(value, bool) and kind is not bool
        ):
            raise TypeError(
                f"'{name}' must be {_WANTS[kind]}, "
                f"got {type(value).__name__}"
            )
        return dict(value) if kind is dict else value

    return parse_primitive


def _default(spec):
    if spec.default_factory is not MISSING:
        return spec.default_factory()
    return spec.default


@functools.cache
def _writer(cls) -> tuple:
    """Per field of ``cls``: (name, default, omitted at its default)."""
    plan = []
    for spec in fields(cls):
        default = _default(spec)
        omit = default is None or "omit_default" in spec.metadata
        plan.append((spec.name, default, omit))
    return tuple(plan)


@functools.cache
def _reader(cls) -> tuple:
    """The field names of ``cls``, and per field: (name, parser,
    required, value rule)."""
    hints = typing.get_type_hints(cls)
    return frozenset(spec.name for spec in fields(cls)), tuple(
        (
            spec.name,
            _decoder(hints[spec.name], spec.name),
            _default(spec) is MISSING or "required" in spec.metadata,
            spec.metadata if "check" in spec.metadata else None,
        )
        for spec in fields(cls)
    )


#: Value types written as they are.
_AS_IS = frozenset({str, int, float, bool, type(None)})


def encode_fields(record) -> dict:
    """``record``'s fields as a JSON-safe dict, in field order."""
    payload = {}
    for name, default, omit in _writer(type(record)):
        value = getattr(record, name)
        if omit and value == default:
            continue
        payload[name] = value if type(value) in _AS_IS else _encode(value)
    return payload


def decode_fields(cls, data, extra: Iterable[str] = ()) -> dict:
    """Constructor keywords for ``cls`` from ``data``.

    ``extra`` names keys outside the fields that the caller reads
    itself; any other key that names no field is refused.
    """
    if not isinstance(data, Mapping):
        raise TypeError(f"{cls.__name__} must be an object")
    names, plan = _reader(cls)
    for key in data:
        if key not in names and key not in extra:
            raise TypeError(f"{cls.__name__} has no field {key!r}")
    kwargs = {}
    for name, parse, required, rule in plan:
        if name not in data:
            if required:
                raise KeyError(name)
            continue
        value = kwargs[name] = parse(data[name])
        if rule is not None and not rule["check"](value):
            raise TypeError(f"'{name}' must be {rule['want']}")
    return kwargs


class Record:
    """Base of a dataclass that serializes through this codec."""

    def to_dict(self) -> dict:
        return encode_fields(self)

    @classmethod
    def from_dict(cls, data: Mapping):
        return cls(**decode_fields(cls, data))
