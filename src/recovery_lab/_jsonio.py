"""Deterministic JSON serialization with 17-significant-digit floats.

Python's ``json`` writes floats via repr; the wire formats here promise a
fixed 17-significant-digit rendering instead, which also round-trips
exactly.  Keys are emitted sorted so identical objects always serialize to
identical bytes.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(obj) -> str:
    """Serialize to a canonical JSON string (sorted keys, fixed float format)."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("only string keys are serializable")
        items = (f"{json.dumps(k)}: {dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    # numpy scalars expose item()
    if hasattr(obj, "item"):
        return dumps(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    return json.loads(text)


def count_field(body: dict, key: str, minimum: int, default: int | None = None) -> int:
    """``body[key]`` (or the default) when it is a JSON integer >= minimum; a
    float such as 2.5 or a bool is refused, not cast."""
    value = body[key] if default is None else body.get(key, default)
    if type(value) is not int or value < minimum:
        raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value
