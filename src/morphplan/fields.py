"""Type checks shared by the config dataclasses' `__post_init__`, so that a
scenario value of the wrong kind fails when the config is built."""

from __future__ import annotations

import dataclasses
import math
import numbers


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_float(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


_KINDS = {"int": (_is_int, "an integer"), "float": (_is_float, "a finite number"),
          "bool": (lambda v: isinstance(v, bool), "true or false")}


def check_field_types(obj) -> None:
    """Raise TypeError unless each field of the dataclass obj annotated
    `int`, `float` or `bool` holds that kind of value; an integer counts as
    a float, a bool as neither number."""
    for f in dataclasses.fields(obj):
        kind = _KINDS.get(f.type)
        if kind is not None and not kind[0](getattr(obj, f.name)):
            raise TypeError(f"{type(obj).__name__}.{f.name} must be {kind[1]}, "
                            f"got {getattr(obj, f.name)!r}")
