"""One rule per value read from outside the program: ``check`` casts it
through ``cast_field`` and applies a named rule, a test and that test in
words, else raises ``ConfigError("<label> must be <words>, got <value>")``.
Each dataclass field that a config or checkpoint value lands on declares its
rule and its YAML key once, with ``setting``, and ``check_fields`` casts and
checks every such field in the class's ``__post_init__``."""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np

from .errors import ConfigError


# named rules: a test of a cast value (NaN fails each range) and its words
ANY = {"test": lambda v: True, "words": ""}
POSITIVE = {"test": lambda v: v > 0, "words": "> 0"}
NON_NEGATIVE = {"test": lambda v: v >= 0, "words": ">= 0"}
AT_LEAST_ONE = {"test": lambda v: v >= 1, "words": ">= 1"}
RATE = {"test": lambda v: 0 < v <= 1, "words": "in (0,1]"}
FRACTION = {"test": lambda v: 0 <= v < 1, "words": "in [0,1)"}
OPEN_UNIT = {"test": lambda v: 0 < v < 1, "words": "in (0,1)"}
CLOSED_UNIT = {"test": lambda v: 0 <= v <= 1, "words": "in [0,1]"}


def one_of(*names):
    return {"test": lambda v: v in names, "words": f"in {{{', '.join(names)}}}"}


def setting(rule, key=None, default=dataclasses.MISSING, **kw):
    """A dataclass field checked by ``rule``, which YAML key ``key`` sets."""
    return dataclasses.field(default=default, metadata={**rule, "key": key}, **kw)


def cast_field(hint, value):
    """``value`` as a field of type ``hint``, else TypeError, ValueError or
    AttributeError.

    ``X | None`` lets None through; ``list``/``dict`` cast each item and key,
    and a list takes no string.  A str field takes only a string, a bool
    (Python or numpy) is no number, and an int field takes an integral float
    (Python or numpy) but no fractional or non-finite one.  A numeric string
    is a number: JSON dict keys are strings, and PyYAML reads ``1e-5`` as one.
    """
    if type(value) is hint:  # the common case, and the value the cast would give
        return value
    # the attributes: typing.get_origin and get_args take 0.8 us a call (2 vCPUs), 8x as long
    origin, args = getattr(hint, "__origin__", None), getattr(hint, "__args__", ())
    if type(None) in args:
        return None if value is None else cast_field(args[0], value)
    if origin is list:
        if isinstance(value, str):  # a string iterates as its characters
            raise TypeError(f"{value!r} is no list")
        return [cast_field(args[0], v) for v in value]
    if origin is dict:
        return {cast_field(args[0], k): cast_field(args[1], v) for k, v in value.items()}
    if hint is str and not isinstance(value, str) or isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is no {hint.__name__}")
    if hint is int and isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ValueError(f"{value!r} is no int")
    return hint(value)


def describe(hint, words):
    """A ``hint`` value that passes a rule of ``words``, in words: ``an int
    >= 1``, ``a dict of int to float in (0,1]``, or a float's bare range."""
    args = getattr(hint, "__args__", ())
    if type(None) in args:
        return describe(args[0], words)
    if hint is float and words:
        return words
    kind = (f"a {hint.__origin__.__name__} of {' to '.join(a.__name__ for a in args)}"
            if args else f"{'an' if hint is int else 'a'} {hint.__name__}")
    return f"{kind} {words}".rstrip()


def check(label, value, hint, test, words):
    """``value`` cast to ``hint``, if the cast (each item of a list, each
    value of a dict; None as it is) passes ``test``; else ConfigError."""
    try:
        cast = cast_field(hint, value)
        if cast is None or all(map(test, cast.values() if isinstance(cast, dict) else
                                   cast if isinstance(cast, list) else [cast])):
            return cast
    except (AttributeError, TypeError, ValueError):
        pass
    raise ConfigError(f"{label} must be {describe(hint, words)}, got {value!r}")


@functools.cache
def rules(cls):
    """Each ruled field of dataclass ``cls`` by name: (type, test, words)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata["test"], f.metadata["words"])
            for f in dataclasses.fields(cls) if f.metadata}


def check_fields(obj):
    """Casts and checks each ruled field of ``obj``, labelled by its name."""
    for name, entry in rules(type(obj)).items():
        setattr(obj, name, check(name, getattr(obj, name), *entry))
