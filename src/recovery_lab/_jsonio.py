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


_REQUIRED = object()


def number_field(body: dict, key: str, default=_REQUIRED, many: bool = False):
    """``body[key]`` when it is a finite JSON number, or with ``many`` a list of
    them, as a tuple; a bool or a numeric string such as "0.7" is refused, not
    cast.  A given default comes back as is when the key is absent (or null, for
    a default of None)."""
    value = body[key] if default is _REQUIRED else body.get(key, default)
    if value is default:
        return value
    values = value if many else [value]
    if type(values) is not list or not all(
        type(v) in (int, float) and math.isfinite(v) for v in values
    ):
        what = "a list of finite numbers" if many else "a finite number"
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return tuple(values) if many else value


def descriptor(d, bodies: dict[str, tuple[str, ...]]) -> tuple[str, dict]:
    """The kind and body of a descriptor ``{kind: body}``: d holds exactly one key,
    a kind of ``bodies``, whose body holds only that kind's keys."""
    if type(d) is not dict or len(d) != 1:
        got = sorted(d) if type(d) is dict else d
        raise ValueError(f"a descriptor holds exactly one of {sorted(bodies)}, got {got!r}")
    (kind, body), = d.items()
    if kind not in bodies:
        raise ValueError(f"unknown kind {kind!r}, not one of {sorted(bodies)}")
    return kind, known_keys(body, bodies[kind])


def known_keys(body, keys: tuple[str, ...]) -> dict:
    """``body`` when it is an object whose keys are all among ``keys``."""
    if type(body) is not dict:
        raise ValueError(f"expected an object, got {body!r}")
    if extra := sorted(set(body) - set(keys)):
        raise ValueError(f"unknown key {', '.join(map(repr, extra))}; known: {', '.join(keys)}")
    return body
