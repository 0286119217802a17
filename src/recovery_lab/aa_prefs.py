"""Acts over monetary lotteries and ambiguity-sensitive utility representations.

An act assigns one lottery per state of the world.  Preferences over acts
are represented by a piecewise-linear utility-of-money index u (normalized
u(a) = 0, u(b) = 1) and a grounded cost over priors: the value of statewise
expected utilities is the least, over priors, of their prior-weighted mean
plus the prior's cost (the variational form).  Expected utility is one
prior at cost 0 and max-min a prior set at cost 0, so a preference is an
index and a ``CostFunction``.  Act values take two batched steps,
``eu_table`` then ``prior_set_values``; scalar calls are batches of one.
The same machinery supplies certainty equivalents and the sup-distances
between representations used by the convergence experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    IntervalMismatchError,
    NotStrictlyIncreasingError,
    ShapeMismatchError,
)
from .lotteries import (
    PROB_TOL,
    UNIT,
    DominanceVerdict,
    Interval,
    Lottery,
    fosd_compare,
)
from ._combinatorics import compositions

CE_TOL = 1e-10


@dataclass(frozen=True)
class Act:
    """State-contingent monetary lottery: one Lottery per state."""

    per_state: tuple[Lottery, ...]

    def __post_init__(self):
        if not self.per_state:
            raise ShapeMismatchError("act needs at least one state")
        iv = self.per_state[0].interval
        if any(p.interval != iv for p in self.per_state):
            raise IntervalMismatchError("all state lotteries must share one interval")

    @property
    def n_states(self) -> int:
        return len(self.per_state)

    @property
    def interval(self) -> Interval:
        return self.per_state[0].interval

    @staticmethod
    def constant(p: Lottery, n_states: int) -> "Act":
        return Act((p,) * n_states)


@dataclass(frozen=True)
class BernoulliIndex:
    """Piecewise-linear utility of money on [a, b] with u(a) = 0, u(b) = 1.

    Values must be weakly increasing; certainty-equivalent operations
    additionally require strict increase and raise otherwise.
    """

    interval: Interval
    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) < 2:
            raise ValueError("need matching knots/values with at least the endpoints")
        if self.knots[0] != self.interval.a or self.knots[-1] != self.interval.b:
            raise ValueError("knots must start at a and end at b")
        if any(k2 <= k1 for k1, k2 in zip(self.knots, self.knots[1:])):
            raise ValueError("knots must be strictly increasing")
        if abs(self.values[0]) > PROB_TOL or abs(self.values[-1] - 1.0) > PROB_TOL:
            raise ValueError("normalization requires u(a) = 0 and u(b) = 1")
        if any(v2 < v1 for v1, v2 in zip(self.values, self.values[1:])):
            raise ValueError("values must be weakly increasing")

    @staticmethod
    def identity(interval: Interval = UNIT) -> "BernoulliIndex":
        return BernoulliIndex(interval, (interval.a, interval.b), (0.0, 1.0))

    @property
    def is_strictly_increasing(self) -> bool:
        return all(v2 > v1 for v1, v2 in zip(self.values, self.values[1:]))

    def __call__(self, x) -> float | np.ndarray:
        out = np.interp(x, self.knots, self.values)
        return float(out) if np.isscalar(x) else out

    def to_dict(self) -> dict:
        return {"knots": list(self.knots), "values": list(self.values)}

    @staticmethod
    def from_dict(d: dict, interval: Interval) -> "BernoulliIndex":
        return BernoulliIndex(interval, tuple(d["knots"]), tuple(d["values"]))


@dataclass(frozen=True)
class Prior:
    """Probability vector over states."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("empty prior")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("prior weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > PROB_TOL:
            raise ValueError("prior weights must sum to 1 within 1e-12")

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @property
    def n_states(self) -> int:
        return len(self.weights)


def simplex_grid(n_states: int, steps: int) -> list[Prior]:
    """Priors with weights that are multiples of 1/steps; default cost grids."""
    return [Prior(tuple(w)) for w in (compositions(steps, n_states) / steps).tolist()]


@dataclass(frozen=True)
class CostFunction:
    """Prior penalty on a finite grid: grounded (minimum zero) at construction.

    Costs may be ``math.inf`` (excluded priors); at least one must be finite.
    Convexity along the grid is not enforced, only groundedness.
    """

    priors: tuple[Prior, ...]
    costs: tuple[float, ...]

    def __post_init__(self):
        if len(self.priors) != len(self.costs) or not self.priors:
            raise ValueError("need matching nonempty priors/costs")
        n = self.priors[0].n_states
        if any(p.n_states != n for p in self.priors):
            raise ShapeMismatchError("all cost-grid priors need the same state count")
        finite = [c for c in self.costs if math.isfinite(c)]
        if not finite:
            raise ValueError("cost function needs at least one finite value")
        m = min(finite)
        if m != 0.0:
            # ground by shifting so the finite minimum is exactly zero
            object.__setattr__(
                self,
                "costs",
                tuple(c - m if math.isfinite(c) else c for c in self.costs),
            )

    @staticmethod
    def indicator(priors: list[Prior] | tuple[Prior, ...]) -> "CostFunction":
        """Zero on the given priors: the max-min case written variationally."""
        return CostFunction(tuple(priors), (0.0,) * len(priors))


@dataclass(frozen=True)
class AAPreference:
    """A preference over acts: an index and a grounded cost over priors.  The value
    of statewise utilities z is the least ``q·z + c`` over the priors q at finite
    cost c: expected utility is one prior at cost 0, max-min a prior set at cost 0."""

    index: BernoulliIndex
    cost: CostFunction

    @staticmethod
    def eu(index: BernoulliIndex, prior: Prior) -> "AAPreference":
        return AAPreference(index, CostFunction.indicator([prior]))

    @staticmethod
    def maxmin(index: BernoulliIndex, priors) -> "AAPreference":
        return AAPreference(index, CostFunction.indicator(tuple(priors)))

    @staticmethod
    def variational(index: BernoulliIndex, cost: CostFunction) -> "AAPreference":
        return AAPreference(index, cost)

    @property
    def n_states(self) -> int:
        return self.cost.priors[0].n_states

    def value(self, f: Act) -> float:
        return act_value(self, f)

    @cached_property
    def prior_set(self) -> tuple[np.ndarray, np.ndarray]:
        """(q, c): the cost's priors (K, S) and grounded costs (K,) as arrays."""
        return np.array([p.weights for p in self.cost.priors]), np.array(self.cost.costs)

    def to_dict(self) -> dict:
        return {
            "index": self.index.to_dict(),
            "interval": [self.index.interval.a, self.index.interval.b],
            "priors": [list(p.weights) for p in self.cost.priors],
            "costs": [c if math.isfinite(c) else "inf" for c in self.cost.costs],
        }

    @staticmethod
    def from_dict(d: dict) -> "AAPreference":
        iv = Interval(*d.get("interval", (0.0, 1.0)))
        cost = CostFunction(
            tuple(Prior(tuple(w)) for w in d["priors"]),
            tuple(math.inf if c == "inf" else float(c) for c in d["costs"]),
        )
        return AAPreference(BernoulliIndex.from_dict(d["index"], iv), cost)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def eu_table(indices, lotteries) -> np.ndarray:
    """Expected utility of each lottery under each index, shape (U, L) (U may be 0).

    The lotteries are grouped by support size K, and each index is interpolated
    once on their supports laid out group by group.  Each group takes one stacked
    matmul of (1, K) @ (K, 1) products of contiguous vectors, for which matmul
    calls the same ``ddot`` as a lone ``np.dot``: every entry is bit for bit the
    lone lottery's, whatever its batch.  A strided K axis would round apart.
    """
    if len({u.interval for u in indices} | {lot.interval for lot in lotteries}) > 1:
        raise IntervalMismatchError("lottery and index on different intervals")
    by_size: dict[int, list[int]] = {}
    for c, lot in enumerate(lotteries):
        by_size.setdefault(len(lot.support), []).append(c)
    lots = [lotteries[c] for cols in by_size.values() for c in cols]
    support = np.array([x for lot in lots for x in lot.support])
    probs = np.array([w for lot in lots for w in lot.probs])
    u_support = np.array([np.interp(support, u.knots, u.values) for u in indices])
    u_support = u_support.reshape(len(indices), len(support))
    table, start = np.empty((len(indices), len(lotteries))), 0
    for k, cols in by_size.items():
        end = start + k * len(cols)
        stacked = np.matmul(probs[start:end].reshape(len(cols), 1, k),
                            u_support[:, start:end].reshape(len(indices), len(cols), k, 1))
        table[:, cols], start = stacked[..., 0, 0], end
    return table


def prior_set_values(terms, c) -> np.ndarray:
    """The least over prior slots k (axis 0) of ``sum_s terms_s[k] + c[k]``, where
    ``terms`` yields state by state each slot's weight times the state's utilities:
    fresh arrays that the sum overwrites.  Summed in state order, this is multiplying
    then adding, so no value depends on its batch.  An infinite cost leaves its slot
    out; zero costs add nothing."""
    terms = iter(terms)
    acc = next(terms)
    for term in terms:
        acc += term
    if np.count_nonzero(c):
        acc += c
    return acc[0] if len(acc) == 1 else np.minimum.reduce(acc)


def aggregate(pref: AAPreference, z) -> np.ndarray:
    """Aggregate rows of statewise utilities, shape (..., S), into values (...),
    through ``prior_set_values`` over the preference's prior set."""
    z, n = np.asarray(z, dtype=float), pref.n_states
    if z.shape[-1:] != (n,):
        raise ShapeMismatchError(f"expected {n} statewise utilities, got shape {z.shape}")
    (q, c), lead = pref.prior_set, (1,) * (z.ndim - 1)
    # .T leads with the states, then the slots, and reverses the rest; .T turns them back
    return prior_set_values((z[..., None, :] * q).T, c.reshape(len(c), *lead)).T


def expected_utility(u: BernoulliIndex, p: Lottery) -> float:
    """Integral of u against p."""
    return float(eu_table([u], [p])[0, 0])


def aggregator_eval(pref: AAPreference, z) -> float:
    """Aggregate a vector of statewise utilities into a single value."""
    if np.ndim(z) != 1:
        raise ShapeMismatchError(f"expected one vector of utilities, got shape {np.shape(z)}")
    return float(aggregate(pref, z))


def act_value(pref: AAPreference, f: Act) -> float:
    """Aggregator applied to the statewise expected utilities of the act."""
    return float(aggregate(pref, eu_table([pref.index], f.per_state)[0]))


def _invert_index(u: BernoulliIndex, target: float) -> float:
    """Bisection solve of u(x) = target on [a, b].

    Runs past the guaranteed CE_TOL down to float convergence, so the
    inversion error in utility stays tiny even for near-vertical segments.
    """
    if not u.is_strictly_increasing:
        raise NotStrictlyIncreasingError(
            "certainty equivalents need a strictly increasing index"
        )
    lo, hi = u.interval.a, u.interval.b
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if u(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ce_lottery(u: BernoulliIndex, p: Lottery) -> float:
    """The sure amount indifferent to p: the unique x with u(x) = E_p[u]."""
    return _invert_index(u, expected_utility(u, p))


def ce_act(pref: AAPreference, f: Act) -> float:
    """The sure amount whose constant act matches the value of f."""
    return _invert_index(pref.index, act_value(pref, f))


def act_dominates(f: Act, g: Act) -> DominanceVerdict:
    """Statewise FOSD conjunction.

    Strict dominance requires strict dominance in every state; mixed
    directions or any statewise crossing yield INCOMPARABLE.
    """
    if f.n_states != g.n_states:
        raise ShapeMismatchError("acts have different state counts")
    verdicts = [fosd_compare(p, q) for p, q in zip(f.per_state, g.per_state)]
    if all(v is DominanceVerdict.EQUAL for v in verdicts):
        return DominanceVerdict.EQUAL
    if all(v.weakly_dominates for v in verdicts):
        if all(v is DominanceVerdict.STRICTLY_DOMINATES for v in verdicts):
            return DominanceVerdict.STRICTLY_DOMINATES
        return DominanceVerdict.DOMINATES
    if all(v.weakly_dominated for v in verdicts):
        if all(v is DominanceVerdict.STRICTLY_DOMINATED_BY for v in verdicts):
            return DominanceVerdict.STRICTLY_DOMINATED_BY
        return DominanceVerdict.DOMINATED_BY
    return DominanceVerdict.INCOMPARABLE


def index_distance(u1: BernoulliIndex, u2: BernoulliIndex) -> float:
    """Sup distance between two piecewise-linear indices.

    Exact: the sup of a piecewise-linear difference is attained at a knot of
    the union of the two knot sets.
    """
    if u1.interval != u2.interval:
        raise IntervalMismatchError("indices on different intervals")
    grid = np.union1d(u1.knots, u2.knots)
    return float(np.max(np.abs(u1(grid) - u2(grid))))


def rep_distance(pref1: AAPreference, pref2: AAPreference, grid: list[Act]) -> tuple[float, float]:
    """(dV, du): sup distances between representations on an evaluation grid.

    dV is taken over the given acts, du exactly over the index knot union.
    """
    if not grid:
        raise ValueError("rep_distance needs a nonempty act grid")
    n = pref1.n_states
    if pref2.n_states != n or any(f.n_states != n for f in grid):
        raise ShapeMismatchError("preferences and acts disagree on the state count")
    # one table row per preference over the grid's distinct lotteries
    col = {lot: c for c, lot in enumerate(dict.fromkeys(lot for f in grid for lot in f.per_state))}
    z = eu_table([pref1.index, pref2.index], list(col))[:, [[col[lot] for lot in f.per_state] for f in grid]]
    dv = np.max(np.abs(aggregate(pref1, z[0]) - aggregate(pref2, z[1])))
    return float(dv), index_distance(pref1.index, pref2.index)


def aggregator_distance(pref1: AAPreference, pref2: AAPreference, z_steps: int = 8) -> float:
    """Sup distance between aggregators on the statewise-utility lattice.

    The lattice is {0, 1/z_steps, ..., 1}^S, the default grid used when
    reporting aggregator convergence.
    """
    n = pref1.n_states
    if pref2.n_states != n:
        raise ShapeMismatchError("preferences disagree on the state count")
    axis = np.linspace(0.0, 1.0, z_steps + 1)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=1)
    return float(np.max(np.abs(aggregate(pref1, pts) - aggregate(pref2, pts)), initial=0.0))
