"""Deterministic composition enumeration shared by lottery and weight grids."""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np


def composition_count(total: int, parts: int) -> int:
    """Number of ways to write ``total`` as an ordered sum of ``parts`` >= 0 terms."""
    return comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` nonnegative integers, one per
    row of an (N, parts) int array.

    Stars and bars: each choice of ``parts - 1`` bar slots among ``total + parts
    - 1`` gives the gaps between bars.  ``combinations`` lists the choices in
    increasing order, so the rows are reversed: order is lexicographically
    decreasing, ``(total, 0, ..., 0)`` first and ``(0, ..., 0, total)`` last.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    n, slots = composition_count(total, parts), total + parts - 1
    bars = np.fromiter(chain.from_iterable(combinations(range(slots), parts - 1)), int, n * (parts - 1))
    gaps = np.diff(bars.reshape(n, parts - 1), axis=1, prepend=-1, append=slots) - 1
    return gaps[::-1]
