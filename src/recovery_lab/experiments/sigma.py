"""Finite choice experiments over a dense act universe.

The universe at one truncation level is the product, across states, of all
lotteries on a rational money grid with bounded-denominator probabilities.
Pairs of universe elements are presented in a fixed diagonal enumeration
(by index sum, then lower index), so every unordered pair eventually
appears exactly once and prefixes of the enumeration form growing finite
experiments.  An experiment is arrays: acts are rows of base-lottery
indices, pairs are rows of act positions, and choices are codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# act_value and expected_utility are not called here, but perfbench's traced
# run patches them on this module, so the names stay bound
from ..aa_prefs import AAPreference, Act, act_value, eu_table, expected_utility, prior_set_values  # noqa: F401
from ..errors import EnumerationCapError, ShapeMismatchError
from ..lotteries import Interval, Lottery, enumerate_rational_lotteries
from .prefgrids import PrefGrid

#: Two act values within this tolerance count as indifferent.
VALUE_TIE_TOL = 1e-12

_GATHER_CELLS = 1 << 19  # most doubles live in one slab of universe_values' state sum


def diagonal_pairs(m: int, k: int) -> np.ndarray:
    """The first k index pairs i < j of range(m) in (i + j, i) order, shape (k, 2).

    Index sum s holds the n(s) = (s - 1) // 2 + 1 - max(0, s - m + 1) pairs
    whose lower index runs up from max(0, s - m + 1); the counts' running total
    finds the last sum needed.  k must not exceed m (m - 1) / 2.
    """
    s = np.arange(1, 2 * m - 2)
    lo = np.maximum(0, s - m + 1)
    n = (s - 1) // 2 + 1 - lo
    end = np.cumsum(n)
    last = np.searchsorted(end, k) + 1  # the sums up to the one holding pair k
    s, lo, n = s[:last], lo[:last], n[:last]
    i = np.repeat(lo + n - end[:last], n) + np.arange(n.sum())
    out = np.stack([i, np.repeat(s, n) - i], axis=1)[:k]
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SigmaSequence:
    """The first k presented pairs from one truncation level's universe.

    ``act_indices`` is a read-only (m, S) int array: row a holds, per state,
    the position in ``base_lotteries`` of universe act a's lottery.
    ``pairs`` is a read-only (k, 2) int array of act positions, in
    presentation order.
    """

    states: int
    interval: Interval
    denominator_bound: int
    grid_count: int
    base_lotteries: tuple[Lottery, ...]
    act_indices: np.ndarray
    pairs: np.ndarray

    @property
    def universe_size(self) -> int:
        return len(self.act_indices)

    @cached_property
    def universe(self) -> tuple[Act, ...]:
        return tuple(
            Act(tuple(self.base_lotteries[i] for i in idx)) for idx in self.act_indices.tolist()
        )


def build_sigma(
    states: int,
    interval: Interval,
    denominator_bound: int,
    grid_count: int,
    k: int,
) -> SigmaSequence:
    """First k pairs of the canonical enumeration at one truncation level.

    The universe is every act of base lotteries in lexicographic order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lots = tuple(enumerate_rational_lotteries(interval, denominator_bound, grid_count))
    act_idx = np.indices((len(lots),) * states).reshape(states, -1).T
    m = len(act_idx)
    act_idx.flags.writeable = False
    total = m * (m - 1) // 2
    if k > total:
        raise EnumerationCapError(
            f"k={k} exceeds the {total} pairs available; raise the truncation level"
        )
    return SigmaSequence(
        states, interval, denominator_bound, grid_count, lots, act_idx, diagonal_pairs(m, k)
    )


def universe_values(prefs, sigma: SigmaSequence, acts=None) -> np.ndarray:
    """Value of the universe acts at positions ``acts`` (default: all of them)
    under every preference of a ``PrefGrid`` or a list (packed into one once),
    shape (P, len(acts)); a preference over another state count raises
    ``ShapeMismatchError``.  One ``eu_table`` of the indices the rows use over the
    base lotteries those acts use, gathered per state for every prior slot of a slab
    of rows, feeds ``prior_set_values``.  So every entry is its act's ``act_value``,
    bit for bit, whatever it is batched with: callers value acts or rows apart."""
    grid = PrefGrid.of(prefs, sigma.states)
    act_idx = sigma.act_indices if acts is None else sigma.act_indices[np.asarray(acts, dtype=int)]
    lots = np.unique(act_idx)
    act_idx = np.searchsorted(lots, act_idx)  # columns of the table below
    used, index_of = np.unique(grid.index_of, return_inverse=True)
    table = eu_table([grid.indices[u] for u in used], [sigma.base_lotteries[i] for i in lots])
    (p, k), a = grid.costs.shape, len(act_idx)
    out = np.empty((p, a))
    step = max(1, _GATHER_CELLS // max(2 * k * a, 1))  # acc and one term live per slab
    for start in range(0, p, step):
        rows = slice(start, start + step)
        q = grid.priors[rows].T[..., None]  # (S, K, rows, 1)
        slots = np.tile(index_of[rows], k)  # slot-major: slot 0 of every row, then slot 1
        def terms():
            for s in range(len(q)):
                term = table[:, act_idx[:, s]][slots].reshape(q.shape[1:3] + (a,))
                term *= q[s]
                yield term
        out[rows] = prior_set_values(terms(), grid.costs[rows].T[..., None])
    return out


def choice_codes(values: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Choice codes of the pairs (k, 2) under act values (..., m), shape (..., k):
    0 when the two values tie within ``VALUE_TIE_TOL``, 1 when the first act is
    chosen and 2 when the second is.  The pairs' values are gathered as rows of
    a contiguous (m, ...) transpose, which is far cheaper than a strided gather
    along the last axis, and coded with two comparisons."""
    t = np.ascontiguousarray(np.moveaxis(values, -1, 0))
    d = t[pairs[:, 0]] - t[pairs[:, 1]]
    return np.moveaxis((d > VALUE_TIE_TOL) + 2 * (d < -VALUE_TIE_TOL), 0, -1)


@dataclass(frozen=True, eq=False)
class ChoiceFunctionData:
    """Observed choices on the presented pairs as ``codes``, shape (k,): code c
    on pair (i, j) means the chosen set {i, j} (c = 0), {i} (1) or {j} (2)."""

    sigma: SigmaSequence
    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.shape != (len(self.sigma.pairs),):
            raise ShapeMismatchError("one choice code per presented pair required")
        if not np.isin(codes, (0, 1, 2)).all():
            raise ValueError("a choice code is 0 (both chosen), 1 (first) or 2 (second)")
        object.__setattr__(self, "codes", codes)


def generated_choices(pref: AAPreference, sigma: SigmaSequence) -> ChoiceFunctionData:
    """The choice data a maximizer with this preference produces; ties keep both."""
    return ChoiceFunctionData(sigma, choice_codes(universe_values([pref], sigma)[0], sigma.pairs))


def strongly_rationalizes(pref: AAPreference, data: ChoiceFunctionData) -> bool:
    """Candidate maximizer sets equal the observed sets on every pair."""
    cand = choice_codes(universe_values([pref], data.sigma)[0], data.sigma.pairs)
    return bool(np.all(cand == data.codes))


def weakly_rationalizes(pref: AAPreference, data: ChoiceFunctionData) -> bool:
    """Observed selections are contained in the candidate maximizer sets: the
    candidate is indifferent, or chooses as observed, on every pair."""
    cand = choice_codes(universe_values([pref], data.sigma)[0], data.sigma.pairs)
    return bool(np.all((cand == 0) | (cand == data.codes)))
