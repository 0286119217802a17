"""Finite-support monetary lotteries and the stochastic-dominance lattice.

Lotteries are probability distributions with finite support on a money
interval [a, b].  The first-order stochastic dominance (FOSD) order is
computed by pointwise comparison of CDFs on the merged support, which is
exact for step functions.  Join and meet are the pointwise CDF minimum and
maximum, making the set of lotteries a lattice under FOSD; those operations
drive the squeeze construction used by the convergence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._combinatorics import composition_count, compositions
from .errors import EnumerationCapError, IntervalMismatchError

#: Absolute tolerance for probability (CDF value) equality.  Support points
#: live on explicit grids and are compared exactly.
PROB_TOL = 1e-12


class DominanceVerdict(Enum):
    """Outcome of a dominance comparison between two objects."""

    EQUAL = "equal"
    DOMINATES = "dominates"
    STRICTLY_DOMINATES = "strictly_dominates"
    DOMINATED_BY = "dominated_by"
    STRICTLY_DOMINATED_BY = "strictly_dominated_by"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "DominanceVerdict":
        """The verdict seen from the other argument's point of view."""
        return _FLIP[self]

    @property
    def weakly_dominates(self) -> bool:
        """True when the first argument is at least as good (FOSD-wise)."""
        return self in (
            DominanceVerdict.EQUAL,
            DominanceVerdict.DOMINATES,
            DominanceVerdict.STRICTLY_DOMINATES,
        )

    @property
    def weakly_dominated(self) -> bool:
        return self in (
            DominanceVerdict.EQUAL,
            DominanceVerdict.DOMINATED_BY,
            DominanceVerdict.STRICTLY_DOMINATED_BY,
        )


_FLIP = {
    DominanceVerdict.EQUAL: DominanceVerdict.EQUAL,
    DominanceVerdict.DOMINATES: DominanceVerdict.DOMINATED_BY,
    DominanceVerdict.STRICTLY_DOMINATES: DominanceVerdict.STRICTLY_DOMINATED_BY,
    DominanceVerdict.DOMINATED_BY: DominanceVerdict.DOMINATES,
    DominanceVerdict.STRICTLY_DOMINATED_BY: DominanceVerdict.STRICTLY_DOMINATES,
    DominanceVerdict.INCOMPARABLE: DominanceVerdict.INCOMPARABLE,
}


@dataclass(frozen=True)
class Interval:
    """A closed money interval [a, b] with a < b, both finite."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval needs a < b, got [{self.a}, {self.b}]")

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b

    @property
    def width(self) -> float:
        return self.b - self.a


UNIT = Interval(0.0, 1.0)


@dataclass(frozen=True)
class Lottery:
    """Finite-support probability distribution on an interval.

    ``support`` is strictly increasing, every point lies in the interval,
    probabilities are positive and sum to one within :data:`PROB_TOL`.
    Use :func:`lottery` or :func:`delta` to build canonical instances from
    unsorted or zero-mass inputs.
    """

    interval: Interval
    support: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise ValueError("support and probs must be same nonzero length")
        if any(q < 0.0 for q in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > PROB_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if any(x2 <= x1 for x1, x2 in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if not (self.interval.contains(self.support[0]) and self.interval.contains(self.support[-1])):
            raise ValueError("support must lie inside the interval")

    @cached_property
    def support_array(self) -> np.ndarray:
        return np.asarray(self.support, dtype=float)

    @cached_property
    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def cdf_on(self, points: np.ndarray) -> np.ndarray:
        """CDF evaluated at each of ``points`` (need not be sorted)."""
        cum = np.cumsum(self.probs_array)
        idx = np.searchsorted(self.support_array, points, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return out

    def mean(self) -> float:
        return float(np.dot(self.support_array, self.probs_array))

    def to_dict(self) -> dict:
        return {"support": list(self.support), "probs": list(self.probs)}

    @staticmethod
    def from_dict(d: dict, interval: Interval) -> "Lottery":
        return lottery(interval, d["support"], d["probs"])


def lottery(interval: Interval, points, probs) -> Lottery:
    """Build a canonical lottery: sorted support, duplicates merged, zero mass dropped."""
    pairs: dict[float, float] = {}
    for x, q in zip(points, probs):
        pairs[float(x)] = pairs.get(float(x), 0.0) + float(q)
    # 1e-15 drops only float dust; genuine small masses survive.
    kept = [(x, q) for x, q in sorted(pairs.items()) if q > 1e-15]
    if not kept:
        raise ValueError("lottery has no mass")
    return Lottery(interval, tuple(x for x, _ in kept), tuple(q for _, q in kept))


def delta(x: float, interval: Interval = UNIT) -> Lottery:
    """Point mass at ``x``."""
    return Lottery(interval, (float(x),), (1.0,))


def cdf_eval(p: Lottery, r: float) -> float:
    """P[X <= r]: a right-continuous step function of r."""
    if not np.isfinite(r):
        raise ValueError("cdf argument must be finite")
    return float(p.cdf_on(np.array([r]))[0])


def _require_same_interval(p: Lottery, q: Lottery) -> None:
    if p.interval != q.interval:
        raise IntervalMismatchError(f"lotteries on {p.interval} vs {q.interval}")


def merged_support(p: Lottery, q: Lottery) -> np.ndarray:
    return np.union1d(p.support_array, q.support_array)


def fosd_compare(p: Lottery, q: Lottery) -> DominanceVerdict:
    """First-order stochastic dominance verdict for p against q.

    p dominates q when F_p <= F_q everywhere; on the real line this is
    equivalent to the increasing-test-function definition.  The most
    specific verdict is returned: for finite supports, weak dominance
    between distinct lotteries is automatically strict somewhere, so the
    plain ``DOMINATES`` verdict only arises for composite objects (acts).
    """
    _require_same_interval(p, q)
    grid = merged_support(p, q)
    fp = p.cdf_on(grid)
    fq = q.cdf_on(grid)
    p_below = bool(np.all(fp <= fq + PROB_TOL))
    q_below = bool(np.all(fq <= fp + PROB_TOL))
    if p_below and q_below:
        return DominanceVerdict.EQUAL
    if p_below:
        return DominanceVerdict.STRICTLY_DOMINATES
    if q_below:
        return DominanceVerdict.STRICTLY_DOMINATED_BY
    return DominanceVerdict.INCOMPARABLE


def same_distribution(p: Lottery, q: Lottery) -> bool:
    return fosd_compare(p, q) is DominanceVerdict.EQUAL


def _cdf_combine(p: Lottery, q: Lottery, pick) -> Lottery:
    """The lottery whose CDF is ``pick`` of p's and q's on the merged support."""
    _require_same_interval(p, q)
    grid = merged_support(p, q)
    masses = np.diff(pick(p.cdf_on(grid), q.cdf_on(grid)), prepend=0.0)
    return lottery(p.interval, grid.tolist(), masses.tolist())


def lottery_join(p: Lottery, q: Lottery) -> Lottery:
    """FOSD supremum: the pointwise CDF minimum on the merged support."""
    return _cdf_combine(p, q, np.minimum)


def lottery_meet(p: Lottery, q: Lottery) -> Lottery:
    """FOSD infimum: the pointwise CDF maximum on the merged support.

    For finite supports the pointwise max of right-continuous step CDFs is
    itself right-continuous, so no further modification is needed.
    """
    return _cdf_combine(p, q, np.maximum)


def squeeze_bounds(seq: list[Lottery]) -> tuple[list[Lottery], list[Lottery]]:
    """Tail meets and tail joins of a finite lottery sequence.

    ``lower[n]`` is the meet of ``seq[n:]`` and ``upper[n]`` the join, so
    ``lower`` increases, ``upper`` decreases, and each sandwiches ``seq[n]``.
    """
    if not seq:
        raise ValueError("squeeze_bounds needs a nonempty sequence")
    lower = [seq[-1]]
    upper = [seq[-1]]
    for x in reversed(seq[:-1]):
        lower.append(lottery_meet(x, lower[-1]))
        upper.append(lottery_join(x, upper[-1]))
    lower.reverse()
    upper.reverse()
    return lower, upper


def rational_grid(interval: Interval, grid_count: int) -> np.ndarray:
    """Evenly spaced money grid with ``grid_count`` points, endpoints included."""
    if grid_count < 2:
        raise ValueError("grid_count must be >= 2")
    return np.linspace(interval.a, interval.b, grid_count)


def enumerate_rational_lotteries(
    interval: Interval,
    denominator_bound: int,
    grid_count: int,
    max_count: int = 200_000,
) -> list[Lottery]:
    """All lotteries on an even money grid with probabilities k/denominator_bound.

    The enumeration is the dense countable family used by the finite
    experiments, truncated at one resolution level.  Order is deterministic:
    mass vectors in lexicographically decreasing order, so the point mass at
    ``a`` comes first and the point mass at ``b`` last.
    """
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be >= 1")
    n = composition_count(denominator_bound, grid_count)
    if n > max_count:
        raise EnumerationCapError(
            f"truncation level too fine: {n} lotteries exceeds cap {max_count}"
        )
    grid = rational_grid(interval, grid_count).tolist()
    masses = compositions(denominator_bound, grid_count) / denominator_bound
    return [lottery(interval, grid, probs) for probs in masses.tolist()]
