"""One declarative codec for every spec, ledger row and wire frame.

HiRISE's results reach users as plain data: spec files drive the figure
sweeps, ledger rows carry per-frame transfer and energy over the socket,
and every wire message is one JSON object.  :func:`serializable` derives
``to_dict``/``from_dict``/``to_json``/``from_json`` for a dataclass from
its field annotations, compiled once per class into a field plan, so the
conventions below are written exactly once:

* **Types.** ``int`` rejects ``bool``; ``float`` accepts an int, stores a
  float, and rejects NaN and +/-Infinity; ``bool`` and ``str`` are exact.
  ``X | None``, ``tuple[T, ...]`` and ``list[T]`` (a JSON list),
  ``dict[str, T]``, ``Any`` (any JSON value, passed through) and nested
  codec dataclasses compose.
* **Presence.** A field with a default is optional on read; a field
  without one is required (``<path>: required field is missing``).
* **Unknown fields** are rejected:
  ``<path>: unknown field(s) [...]; known fields: [...]``.
* **Errors** name the dotted path from the decoded root, list indices
  included (``scenario.frame_seeds[3]: expected int, got 'x'``), and are
  raised as the class's own exception type.  A nested object whose
  ``__post_init__`` rejects its values is reported at its path
  (``system.config: pool_k must be >= 1``).
* **Range and enum checks** stay in each class's ``__post_init__``.

Three per-class or per-field hooks cover what plain annotations cannot:
``shorthand`` (a bare string standing for a whole object, e.g. a
component name), ``derived`` (read-only values written on encode and
re-checked on read, e.g. a profile's total or a frame's ``type``), and
:func:`hook` field metadata (a different exception type for errors below
one field; a local field that never crosses the wire).

:class:`Tagged` is the ``type``-discriminator registry the wire frames
register into (``@FRAMES.register("run")``).

The module is a standard-library leaf: every payload module may depend
on it, and importing it loads no NumPy.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from typing import Any, Callable

_HOOK = "repro.codec"

#: Every codec class, in registration order.
_CLASSES: list[type] = []


class _Invalid(Exception):
    """A value failed to decode; unwinds to the entry point, which names it.

    ``path`` collects segments (``".name"``, ``"[3]"``) innermost first
    while the failure propagates; formatting waits for the entry point,
    so the success path never builds an error string.
    """

    def __init__(self, message: str, cause: Exception | None = None):
        super().__init__(message)
        self.message = message
        self.cause = cause
        self.path: list[str] = []
        self.error: type | None = None


# -- scalars -----------------------------------------------------------------


def _int(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _Invalid(f"expected int, got {value!r}")


def _float(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise _Invalid(f"expected a finite float, got {value!r}")


def _bool(value):
    if value is True or value is False:
        return value
    raise _Invalid(f"expected bool, got {value!r}")


def _str(value):
    if isinstance(value, str):
        return value
    raise _Invalid(f"expected str, got {value!r}")


def _any(value):
    return value


_SCALARS = {int: _int, float: _float, bool: _bool, str: _str, Any: _any}


# -- containers --------------------------------------------------------------


def _optional(encode, decode):
    def decode_optional(value):
        return None if value is None else decode(value)

    if encode is None:
        return None, decode_optional
    return (lambda value: None if value is None else encode(value)), decode_optional


def _sequence(container: type, encode, decode):
    def decode_sequence(value):
        if not isinstance(value, list):
            raise _Invalid(f"expected a list, got {value!r}")
        if decode is _any:
            return container(value)
        items = []
        for index, item in enumerate(value):
            try:
                items.append(decode(item))
            except _Invalid as bad:
                bad.path.append(f"[{index}]")
                raise
        return container(items)

    if encode is None:
        return list, decode_sequence
    return (lambda value: [encode(item) for item in value]), decode_sequence


def _mapping(encode, decode):
    def decode_mapping(value):
        if not isinstance(value, dict):
            raise _Invalid(f"expected a dict, got {value!r}")
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise _Invalid(f"keys must be str, got {key!r}")
            try:
                out[key] = decode(item)
            except _Invalid as bad:
                bad.path.append(f".{key}")
                raise
        return out

    if encode is None:
        return dict, decode_mapping
    return (
        lambda value: {key: encode(item) for key, item in value.items()}
    ), decode_mapping


def _converters(annotation, owner: type) -> tuple[Callable | None, Callable]:
    """``(encode, decode)`` for one annotation; ``encode`` None = as is."""
    if annotation in _SCALARS:
        return None, _SCALARS[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    optional = origin in (typing.Union, types.UnionType) and type(None) in args
    if optional and len(args) == 2:
        inner = args[0] if args[1] is type(None) else args[1]
        return _optional(*_converters(inner, owner))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _sequence(tuple, *_converters(args[0], owner))
    if origin is list and len(args) == 1:
        return _sequence(list, *_converters(args[0], owner))
    if origin is dict and len(args) == 2 and args[0] is str:
        return _mapping(*_converters(args[1], owner))
    if isinstance(annotation, type) and "_codec_decode" in annotation.__dict__:
        return annotation.to_dict, annotation._codec_decode
    raise TypeError(
        f"{owner.__name__}: the codec cannot handle annotation {annotation!r}"
    )


# -- the per-class plan ------------------------------------------------------


def hook(*, error: type | None = None, local: str | None = None) -> dict:
    """Field metadata for the codec's per-field hooks.

    Args:
        error: raise failures at or below this field as this exception
            type instead of the class's own.
        local: the field never crosses the wire.  It is left out of
            ``to_dict``/``from_dict``; encoding a non-empty value raises
            the class's error with this text as the reason.
    """
    return {_HOOK: {"error": error, "local": local}}


def _raise(bad: _Invalid, root: str, error: type) -> typing.NoReturn:
    if bad.cause is not None and not bad.path:
        # The root object's own __post_init__ rejected it: its message
        # already names the field.
        if isinstance(bad.cause, error):
            raise bad.cause from None
        raise error(f"{root}: {bad.message}") from None
    path = root + "".join(reversed(bad.path))
    raise (bad.error or error)(f"{path}: {bad.message}") from None


def _compile(cls, root, error, shorthand, derived) -> None:
    hints = typing.get_type_hints(cls)
    fields = []  # (name, decode, required)
    wire, local, converters = [], [], {}
    for f in dataclasses.fields(cls):
        options = f.metadata.get(_HOOK, {})
        if options.get("local") is not None:
            local.append((f.name, options["local"]))
            continue
        if not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: init=False is not supported")
        encode, decode = _converters(hints[f.name], cls)
        if options.get("error") is not None:
            decode = _with_error(decode, options["error"])
        missing = dataclasses.MISSING
        required = f.default is missing and f.default_factory is missing
        fields.append((f.name, decode, required))
        wire.append(f.name)
        if encode is not None:
            converters[f.name] = encode
    checks = [(key, _converters(kind, cls)[1]) for key, kind in derived.items()]
    known = frozenset((*derived, *wire))
    to_dict = _encoder((*derived, *wire), converters, local, root, error)

    def decode(data):
        if shorthand is not None and isinstance(data, str):
            data = shorthand(data)
        if not isinstance(data, dict):
            raise _Invalid(f"expected a dict, got {data!r}")
        if not data.keys() <= known:
            unknown = sorted(set(data) - known, key=str)
            raise _Invalid(
                f"unknown field(s) {unknown}; known fields: {sorted(known)}"
            )
        kwargs = {}
        name = None
        try:
            for name, decode_field, required in fields:
                if name in data:
                    kwargs[name] = decode_field(data[name])
                elif required:
                    raise _Invalid("required field is missing")
            name = None
            obj = cls(**kwargs)
            for name, decode_key in checks:
                if name in data and decode_key(data[name]) != getattr(obj, name):
                    raise _Invalid(
                        f"expected {getattr(obj, name)!r}, got {data[name]!r}"
                    )
        except _Invalid as bad:
            if name is not None:
                bad.path.append(f".{name}")
            raise
        except ValueError as exc:
            raise _Invalid(str(exc), cause=exc) from None
        return obj

    def from_dict(data):
        try:
            return decode(data)
        except _Invalid as bad:
            _raise(bad, root, error)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def from_json(text: str):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise error(f"{root}: not valid JSON ({exc})") from None
        return from_dict(data)

    for method in (to_dict, to_json, from_dict, from_json):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    cls.to_dict = to_dict
    cls.to_json = to_json
    cls.from_dict = staticmethod(from_dict)
    cls.from_json = staticmethod(from_json)
    cls._codec_decode = staticmethod(decode)


def _encoder(keys, converters, local, root, error) -> Callable:
    """Generate ``to_dict`` as one dict display: the encode hot path.

    Every request's reply and every result-cache key passes through it,
    so it is compiled to straight-line code (as :mod:`dataclasses` does
    for ``__init__``) instead of looping over the plan per call.
    """
    namespace = {"error": error}
    lines = ["def to_dict(self):"]
    for name, reason in local:
        message = f"{root}.{name}: {reason}"
        lines.append(f"    if self.{name}: raise error({message!r})")
    items = []
    for key in keys:
        if key in converters:
            namespace[f"_encode_{key}"] = converters[key]
            items.append(f"{key!r}: _encode_{key}(self.{key})")
        else:
            items.append(f"{key!r}: self.{key}")
    lines.append(f"    return {{{', '.join(items)}}}")
    exec("\n".join(lines), namespace)
    return namespace["to_dict"]


def _with_error(decode: Callable, error: type) -> Callable:
    def decode_with_error(value):
        try:
            return decode(value)
        except _Invalid as bad:
            bad.error = bad.error or error
            raise

    return decode_with_error


def serializable(
    root: str,
    error: type = ValueError,
    *,
    shorthand: Callable[[str], dict] | None = None,
    derived: dict[str, type] | None = None,
):
    """Class decorator: derive the codec methods of a dataclass.

    Apply it above ``@dataclass``.  Nested codec classes must be
    decorated before the classes that contain them (they are, whenever
    they are defined or imported first).

    Args:
        root: the first segment of every error path (``"scenario"``).
        error: the exception type ``from_dict``/``from_json`` raise; a
            ``ValueError`` subclass.
        shorthand: maps a bare string to the dict it stands for, wherever
            this class is read (``"pedestrian"`` -> ``{"name": ...}``).
        derived: read-only attributes (properties, class constants) to
            write first on encode; on read each is optional and, when
            present, must equal the value the decoded object derives.
    """

    def wrap(cls):
        _compile(cls, root, error, shorthand, dict(derived or {}))
        _CLASSES.append(cls)
        return cls

    return wrap


def classes() -> tuple[type, ...]:
    """Every class the codec has compiled so far, in registration order."""
    return tuple(_CLASSES)


class Tagged:
    """A ``type``-discriminated family of codec classes (the wire frames).

    ``@FRAMES.register("run")`` compiles the class with root ``"run"``,
    sets ``cls.type = "run"`` and writes it as the first key of every
    encoded dict; :meth:`decode` dispatches a dict on that key.
    """

    def __init__(self, kind: str, error: type):
        self.kind = kind
        self.error = error
        self._classes: dict[str, type] = {}

    def register(self, tag: str) -> Callable[[type], type]:
        def bind(cls: type) -> type:
            if tag in self._classes:
                raise ValueError(f"{self.kind} type {tag!r} is already registered")
            cls.type = tag
            serializable(tag, self.error, derived={"type": str})(cls)
            self._classes[tag] = cls
            return cls

        return bind

    def names(self) -> list[str]:
        return sorted(self._classes)

    def decode(self, data):
        """The typed object for a decoded dict, by its discriminator."""
        if not isinstance(data, dict):
            raise self.error(f"{self.kind}: expected a JSON object, got {data!r}")
        tag = data.get("type")
        if tag is None:
            problem = "required field is missing"
        elif not isinstance(tag, str):
            problem = f"expected str, got {tag!r}"
        elif tag in self._classes:
            return self._classes[tag].from_dict(data)
        else:
            problem = (
                f"unknown {self.kind} type {tag!r}; known types: {self.names()}"
            )
        raise self.error(f"{self.kind}.type: {problem}")
