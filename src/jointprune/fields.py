"""The one cast rule for dataclass fields read from a file, shared by the
experiment YAML and a checkpoint's stored winner-rate config."""

from __future__ import annotations

import typing

import numpy as np


def cast_field(hint, value):
    """``value`` as a field of type ``hint``, else TypeError, ValueError or
    AttributeError: each caller raises its own error type from these.

    ``X | None`` lets None through; ``list``/``dict`` cast each item and key.
    A str field takes only a string, a bool (Python or numpy) is no number,
    and an int field takes an integral float (Python or numpy) but no
    fractional or non-finite one.  A numeric string is a number: JSON dict
    keys are strings, and PyYAML reads ``1e-5`` as one.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else cast_field(args[0], value)
    if typing.get_origin(hint) is list:
        return [cast_field(args[0], v) for v in value]
    if typing.get_origin(hint) is dict:
        return {cast_field(args[0], k): cast_field(args[1], v) for k, v in value.items()}
    if hint is str and not isinstance(value, str) or isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is no {hint.__name__}")
    if hint is int and isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ValueError(f"{value!r} is no int")
    return hint(value)
