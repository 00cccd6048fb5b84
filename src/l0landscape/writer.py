"""The JSON report writer: the bytes of ``json.dumps(obj, indent=2, allow_nan=False)``.

``indent`` makes the standard library fall back to its pure-Python encoder,
which yields one small string per token; at a few hundred stationary points
that cost more than enumerating them.  :func:`dumps` writes the same text
for the values the reports hold: dicts with ``str`` keys, lists, tuples,
strings (``str`` enums among them), ints, bools, ``None`` and floats,
subclasses such as ``np.float64`` included.  Values dispatch on their exact
type, with an ``isinstance`` fallback for subclasses in ``json``'s order.  A
list of only finite exact floats, or only exact ints, is one ``str.join`` at
its indentation.  A non-finite float raises ``ValueError``, as
``allow_nan=False`` does.

An object that is none of these may write itself: ``obj.json_text(level)``
returns its text at nesting ``level``.  A report's points are one such
object (``enumeration._PointRows``), written from the support table's arrays
with no record or dict per point, and so are a sweep's intervals and
transitions (``levelsets.SweepResult.to_records``); :func:`rows` frames the
items such an object has written.
"""

from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii as string

_INDENT = "  "


@functools.cache
def frame(level: int) -> tuple[str, str, str]:
    """The line breaks of a list or dict whose brackets open at nesting ``level``.

    ``(first, separator, last)``: before the first item, between items, and
    before the closing bracket.
    """
    inner = "\n" + _INDENT * (level + 1)
    return inner, "," + inner, "\n" + _INDENT * level


def number(value: float) -> str:
    """A finite float as ``json`` writes it."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def numbers(items: list[float]) -> list[str]:
    """Exact floats as ``json`` writes them, after one finiteness check of them all."""
    # ``number`` raises at the first non-finite item.
    return list(map(float.__repr__ if all(map(math.isfinite, items)) else number, items))


def rows(texts: list[str], level: int) -> str:
    """A list of items already written at nesting ``level + 1``, its brackets at ``level``."""
    if not texts:
        return "[]"
    first, separator, last = frame(level)
    return "[" + first + separator.join(texts) + last + "]"


def floats(items: list[float], level: int) -> str:
    """A list of exact floats: one finiteness check and one join."""
    return rows(numbers(items), level)


def ints(items: list[int], level: int) -> str:
    """A list of exact ints: one join."""
    return rows(list(map(int.__repr__, items)), level)


def _array(items, level: int) -> str:
    """A list or tuple whose brackets open at nesting ``level``."""
    types = set(map(type, items))
    if types == {float}:
        return floats(items, level)
    if types == {int}:
        return ints(items, level)
    return rows([dumps(v, level + 1) for v in items], level)


def _object(items: dict, level: int) -> str:
    if not items:
        return "{}"
    first, separator, last = frame(level)
    body = (string(k) + ": " + dumps(v, level + 1) for k, v in items.items())
    return "{" + first + separator.join(body) + last + "}"


_EXACT = {
    str: lambda o, level: string(o),
    type(None): lambda o, level: "null",
    bool: lambda o, level: "true" if o else "false",
    int: lambda o, level: int.__repr__(o),
    float: lambda o, level: number(o),
    list: _array,
    tuple: _array,
    dict: _object,
}
# Subclasses (a ``str`` enum, ``np.float64``), in the order ``json`` tests them.
_BASES = ((str, _EXACT[str]), (int, _EXACT[int]), (float, _EXACT[float]),
          ((list, tuple), _array), (dict, _object))


def dumps(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` for the values above.

    ``level`` is the nesting at which ``obj`` sits inside a larger report.
    """
    write = _EXACT.get(type(obj))
    if write is not None:
        return write(obj, level)
    for base, write in _BASES:
        if isinstance(obj, base):
            return write(obj, level)
    json_text = getattr(obj, "json_text", None)
    if json_text is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return json_text(level)
