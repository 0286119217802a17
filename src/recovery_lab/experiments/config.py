"""Config fields: each subcommand's names, types, bounds and defaults, declared once.

A table maps each field name to a ``Field``: what the value must be, a reader
and a default (without one the field is required).  ``read_fields`` runs the
readers in table order, and each sees the fields read before it, so a family
is read against its domain.  A reader returns the typed value or raises, and
the error becomes one ``ConfigError`` line naming the field.  ``cli.load_config``
and ``--help`` take the names, defaults and bounds from the same table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from ..errors import ConfigError, NumericalGuardError
from ..lotteries import Interval

REQUIRED = object()
RECORDS = 1 << 32  # most records in one dataset: record ids are 32-bit stream words


@dataclass(frozen=True)
class Field:
    must_be: str
    read: Callable  # (value, fields read so far) -> typed value
    default: object = REQUIRED

    def help(self, name: str) -> str:
        if self.default is REQUIRED:
            return f"  {name}: {self.must_be} (required)"
        tail = "" if self.default is None else f" (default {json.dumps(self.default)})"
        return f"  {name}: {self.must_be}{tail}"


def read_fields(cfg: dict, table: dict[str, Field]) -> SimpleNamespace:
    """The table's fields of ``cfg``, read and checked; other keys are ignored."""
    got = SimpleNamespace()
    for name, field in table.items():
        if (value := cfg.get(name, field.default)) is REQUIRED:
            raise ConfigError(f"{name} is missing")
        try:
            setattr(got, name, field.read(value, got))
        except (ConfigError, NumericalGuardError):
            raise
        except (ValueError, TypeError, LookupError, AttributeError, ArithmeticError,
                OSError) as exc:
            detail = f": {exc}" if str(exc) else ""
            raise ConfigError(f"{name} must be {field.must_be}, got {value!r}{detail}") from None
    return got


def need(ok: bool) -> None:
    if not ok:
        raise ValueError


def as_int(value, minimum: int, maximum: float = float("inf")) -> int:
    need(type(value) is int and minimum <= value <= maximum)  # a bool is not a count
    return value


def as_float(value) -> float:
    need(type(value) in (int, float))
    return float(value)


def as_list(value, shortest: int, longest: float = float("inf")) -> list:
    need(type(value) is list and shortest <= len(value) <= longest)
    return value


def _bounds(minimum: int, maximum: float) -> str:
    return f">= {minimum}" if maximum == float("inf") else f"in [{minimum}, {maximum}]"


def count(minimum: int, default=REQUIRED, maximum: float = float("inf")) -> Field:
    must_be = f"an integer {_bounds(minimum, maximum)}"
    return Field(must_be, lambda v, got: as_int(v, minimum, maximum), default)


def counts(minimum: int, maximum: float = float("inf")) -> Field:
    """A nonempty list of distinct integers in [minimum, maximum], read in ascending order."""
    def read(value, got) -> list[int]:
        ns = sorted(as_int(n, minimum, maximum) for n in as_list(value, 1))
        need(len(set(ns)) == len(ns))  # a repeat would run and report its cell twice
        return ns

    return Field(f"a nonempty list of distinct integers {_bounds(minimum, maximum)}", read)


def number(must_be: str, ok: Callable[[float], bool], default=REQUIRED) -> Field:
    def read(value, got) -> float:
        need(ok(x := as_float(value)))
        return x

    return Field(must_be, read, default)


def choice(*options: str, default: str) -> Field:
    def read(value, got) -> str:
        need(value in options)
        return value

    return Field("one of " + ", ".join(options), read, default)


def fields(**table: Field) -> dict[str, Field]:
    """A subcommand's table; every subcommand takes a seed."""
    return {"seed": count(0, 0), **table}


def _level(den, gc) -> tuple[int, int]:
    return as_int(den, 1), as_int(gc, 2)


def _level_dict(value, got) -> tuple[int, int]:
    need(type(value) is dict and sorted(value) == ["denominator_bound", "grid_count"])
    return _level(value["denominator_bound"], value["grid_count"])


def _schedule(value, got) -> list[tuple[int, int]]:
    levels = []
    for i, level in enumerate(as_list(value, 1)):
        try:
            levels.append(_level(*as_list(level, 2, 2)))
        except ValueError:
            must_be = "[denominator_bound >= 1, grid_count >= 2]"
            raise ConfigError(f"schedule[{i}] must be {must_be}, got {level!r}") from None
    return levels


def truncation(default=REQUIRED) -> Field:
    """One truncation level, read as (denominator_bound, grid_count)."""
    must_be = '{"denominator_bound": an integer >= 1, "grid_count": an integer >= 2}'
    return Field(must_be, _level_dict, default)


SCHEDULE = Field("a nonempty list of [denominator_bound >= 1, grid_count >= 2]", _schedule)
INTERVAL = Field(
    "[lo, hi] with lo < hi",
    lambda v, got: Interval(*(as_float(x) for x in as_list(v, 2, 2))),
    [0.0, 1.0],
)
