"""Finite choice experiments over a dense act universe.

The universe at one truncation level is the product, across states, of all
lotteries on a rational money grid with bounded-denominator probabilities.
Pairs of universe elements are presented in a fixed diagonal enumeration
(by index sum, then lower index), so every unordered pair eventually
appears exactly once and prefixes of the enumeration form growing finite
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

# act_value and expected_utility are not called here, but perfbench's traced
# run patches them on this module, so the names stay bound
from ..aa_prefs import EU, AAPreference, Act, act_value, aggregate, eu_table, expected_utility  # noqa: F401
from ..errors import EnumerationCapError, ShapeMismatchError
from ..lotteries import Interval, Lottery, enumerate_rational_lotteries
from .prefgrids import EUGrid

#: Two act values within this tolerance count as indifferent.
VALUE_TIE_TOL = 1e-12

_GATHER_CELLS = 1 << 19  # most doubles live in one slab of universe_values' EU sum


def diagonal_pair_iter(m: int):
    """Index pairs i < j of range(m) in (i + j, i) order, lazily."""
    for s in range(1, 2 * m - 2):
        for i in range(max(0, s - m + 1), (s - 1) // 2 + 1):
            yield i, s - i


@dataclass(frozen=True)
class SigmaSequence:
    """The first k presented pairs from one truncation level's universe."""

    states: int
    interval: Interval
    denominator_bound: int
    grid_count: int
    base_lotteries: tuple[Lottery, ...]
    act_indices: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def universe_size(self) -> int:
        return len(self.act_indices)

    @cached_property
    def universe(self) -> tuple[Act, ...]:
        return tuple(
            Act(tuple(self.base_lotteries[i] for i in idx)) for idx in self.act_indices
        )

    @cached_property
    def act_index_array(self) -> np.ndarray:
        """``act_indices`` as a read-only (m, S) array."""
        out = np.asarray(self.act_indices)
        out.flags.writeable = False
        return out


def build_sigma(
    states: int,
    interval: Interval,
    denominator_bound: int,
    grid_count: int,
    k: int,
    permutation: np.ndarray | None = None,
) -> SigmaSequence:
    """First k pairs of the canonical enumeration at one truncation level.

    ``permutation`` reorders the universe before the diagonal enumeration;
    replicated sweeps use seeded permutations to perturb only the order in
    which pairs are presented.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lots = tuple(enumerate_rational_lotteries(interval, denominator_bound, grid_count))
    act_idx = [tuple(c) for c in product(range(len(lots)), repeat=states)]
    if permutation is not None:
        if sorted(permutation) != list(range(len(act_idx))):
            raise ValueError("permutation must rearrange the full universe")
        act_idx = [act_idx[p] for p in permutation]
    m = len(act_idx)
    total = m * (m - 1) // 2
    if k > total:
        raise EnumerationCapError(
            f"k={k} exceeds the {total} pairs available; raise the truncation level"
        )
    it = diagonal_pair_iter(m)
    pairs = tuple(next(it) for _ in range(k))
    return SigmaSequence(
        states, interval, denominator_bound, grid_count, lots, tuple(act_idx), pairs
    )


def universe_values(prefs, sigma: SigmaSequence, acts=None) -> np.ndarray:
    """Value of the universe acts at positions ``acts`` (default: all of them)
    under every preference of an ``EUGrid`` or a list, shape (P, len(acts)).

    Every kind reads one ``eu_table`` of the distinct indices its rows use (a
    list's told apart by ``id()``: hashing an index is slow) against the base
    lotteries those acts use.  Max-min and variational rows go through
    ``aggregate``, bit for bit each act's ``act_value``.  Expected-utility rows
    gather ``table[index_of]`` and sum prior-weighted states in state order,
    multiplying then adding, one slab of rows at a time.  So no entry depends on
    the preferences or acts batched with it, which callers valuing a few acts or
    rows apart rely on.  That sum and ``act_value``'s BLAS dot differ in the
    last bit on some entries (by at most 1.1e-16), and recorded outputs pin each
    (recovery's and theorem2's).  On an x86-64 Xeon with numpy 2.4, a dot of
    fewer than 16 terms is an in-order fma chain; numpy has no fma ufunc, so
    this sum does not emulate one.
    """
    act_idx = sigma.act_index_array
    if acts is not None:
        act_idx = act_idx[np.asarray(acts, dtype=int)]
    lots = np.unique(act_idx)
    act_idx = np.searchsorted(lots, act_idx)  # columns of the table below
    if isinstance(prefs, EUGrid):
        indices, index_of, priors = prefs.indices, prefs.index_of, prefs.priors
        eu, others = np.arange(len(prefs)), []  # the expected-utility rows, and the rest
    else:  # packed into the grid's arrays once
        indices = list({id(p.index): p.index for p in prefs}.values())
        row_of = {id(u): r for r, u in enumerate(indices)}
        index_of = np.array([row_of[id(p.index)] for p in prefs], int)
        eu = np.array([r for r, p in enumerate(prefs) if p.kind == EU], int)
        others = [r for r, p in enumerate(prefs) if p.kind != EU]
        priors = np.array([prefs[r].prior.weights for r in eu])
    used, index_of = np.unique(index_of, return_inverse=True)
    table = eu_table([indices[u] for u in used], [sigma.base_lotteries[i] for i in lots])
    out = np.empty((len(prefs), len(act_idx)))
    for r in others:
        out[r] = aggregate(prefs[r], table[index_of[r]][act_idx])
    step = max(1, _GATHER_CELLS // max(2 * len(act_idx), 1))  # acc and one term live per slab
    for start in range(0, len(eu), step):
        rows = eu[start : start + step]  # a slab of EU rows over every act
        acc = table[:, act_idx[:, 0]][index_of[rows]]
        acc *= priors[start : start + step, :1]
        for s in range(1, act_idx.shape[1]):
            term = table[:, act_idx[:, s]][index_of[rows]]
            term *= priors[start : start + step, s : s + 1]
            acc += term
        out[rows] = acc
    return out


@dataclass(frozen=True)
class ChoiceFunctionData:
    """Observed selections, possibly both elements, for each presented pair."""

    sigma: SigmaSequence
    chosen: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.chosen) != len(self.sigma.pairs):
            raise ShapeMismatchError("one chosen set per presented pair required")
        if any(not c for c in self.chosen):
            raise ValueError("every pair needs a nonempty chosen set")


def _argmax_set(i: int, j: int, vi: float, vj: float) -> frozenset[int]:
    if abs(vi - vj) <= VALUE_TIE_TOL:
        return frozenset((i, j))
    return frozenset((i,)) if vi > vj else frozenset((j,))


def generated_choices(pref: AAPreference, sigma: SigmaSequence) -> ChoiceFunctionData:
    """The choice data a maximizer with this preference produces; ties keep both."""
    values = universe_values([pref], sigma)[0]
    chosen = tuple(
        _argmax_set(i, j, values[i], values[j]) for i, j in sigma.pairs
    )
    return ChoiceFunctionData(sigma, chosen)


def _candidate_sets(pref: AAPreference, data: ChoiceFunctionData):
    values = universe_values([pref], data.sigma)[0]
    for (i, j), observed in zip(data.sigma.pairs, data.chosen):
        yield observed, _argmax_set(i, j, values[i], values[j])


def strongly_rationalizes(pref: AAPreference, data: ChoiceFunctionData) -> bool:
    """Candidate maximizer sets equal the observed sets on every pair."""
    return all(obs == cand for obs, cand in _candidate_sets(pref, data))


def weakly_rationalizes(pref: AAPreference, data: ChoiceFunctionData) -> bool:
    """Observed selections are contained in the candidate maximizer sets."""
    return all(obs <= cand for obs, cand in _candidate_sets(pref, data))
