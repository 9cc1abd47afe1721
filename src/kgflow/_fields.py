"""The one rule for reading a field of a loaded document, and the one rule
for an integer count. Each module binds ``field`` and ``count`` to its own
error with ``functools.partial``, so every ``*_from_dict`` loader and every
count check raises that module's error naming the field and the value.
"""

from __future__ import annotations

import operator
from typing import Any, Mapping

_REQUIRED: Any = object()


def field(error: type[Exception], doc: Any, key: str, what: str,
          kind: type | None = None, default: Any = _REQUIRED) -> Any:
    """``doc[key]`` read as a ``kind``: a ``str``, ``list`` or ``Mapping`` is
    checked and returned as it is, an ``int`` or ``float`` converted. A
    missing or null field takes ``default`` when one is given. ``error`` is
    raised for a document that is no mapping, a missing field without a
    default, a value that is not a ``kind``, and, where ``kind`` is a
    number, a bool, a value that does not convert or an int's fraction."""
    if not isinstance(doc, Mapping) or (key not in doc
                                        and default is _REQUIRED):
        raise error(f"{what} {doc!r} has no {key!r} field")
    value = doc.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if kind is int or kind is float:
        try:
            number = None if isinstance(value, bool) else kind(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        if number is None:
            raise error(f"{what} {doc!r} has a non-numeric {key}: {value!r}")
        if kind is int and isinstance(value, float) and number != value:
            raise error(f"{what} {doc!r} has a non-integral {key}: {value!r}")
        return number
    if kind is not None and not isinstance(value, kind):
        raise error(f"{what} field {key!r} must be a {kind.__name__}: "
                    f"{value!r}")
    return value


def count(error: type[Exception], name: str, value: Any, least: int) -> None:
    """Raise ``error`` unless ``value`` is an integer (a bool is not) of at
    least ``least``."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least
    except TypeError:
        ok = False
    if not ok:
        raise error(f"{name} must be an integer >= {least}: {value!r}")
