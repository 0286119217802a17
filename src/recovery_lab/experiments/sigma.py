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

from ..aa_prefs import AAPreference, Act, act_value, expected_utility
from ..errors import EnumerationCapError, ShapeMismatchError
from ..lotteries import Interval, Lottery, enumerate_rational_lotteries

#: Two act values within this tolerance count as indifferent.
VALUE_TIE_TOL = 1e-12


def diagonal_pair_iter(m: int):
    """Index pairs i < j of range(m) in (i + j, i) order, lazily."""
    for s in range(1, 2 * m - 2):
        for i in range(max(0, s - m + 1), (s - 1) // 2 + 1):
            yield i, s - i


def diagonal_pair_order(m: int) -> list[tuple[int, int]]:
    """All index pairs i < j of range(m), sorted by (i + j, i)."""
    return list(diagonal_pair_iter(m))


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

    def pair_acts(self, t: int) -> tuple[Act, Act]:
        i, j = self.pairs[t]
        return self.universe[i], self.universe[j]


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


def universe_values(prefs: list[AAPreference], sigma: SigmaSequence) -> np.ndarray:
    """Value of every universe act under every preference, shape (P, m).

    Expected-utility preferences take a vectorized path through the shared
    lottery table; other kinds fall back to direct act evaluation.
    """
    act_idx = np.asarray(sigma.act_indices)
    if all(p.kind == "eu" for p in prefs):
        index_key = {}
        rows = []
        for p in prefs:
            key = (p.index.knots, p.index.values)
            if key not in index_key:
                index_key[key] = len(index_key)
            rows.append(index_key[key])
        eu_table = np.empty((len(index_key), len(sigma.base_lotteries)))
        for key, r in index_key.items():
            idx = next(p.index for p in prefs if (p.index.knots, p.index.values) == key)
            eu_table[r] = [expected_utility(idx, lot) for lot in sigma.base_lotteries]
        statewise = eu_table[np.asarray(rows)][:, act_idx]  # (P, m, S)
        priors = np.stack([p.prior.as_array for p in prefs])  # (P, S)
        return np.einsum("pms,ps->pm", statewise, priors)
    out = np.empty((len(prefs), sigma.universe_size))
    for r, p in enumerate(prefs):
        out[r] = [act_value(p, act) for act in sigma.universe]
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
