"""Acts over monetary lotteries and ambiguity-sensitive utility representations.

An act assigns one lottery per state of the world.  Preferences over acts
are represented by a piecewise-linear utility-of-money index u (normalized
u(a) = 0, u(b) = 1) composed with an aggregator over statewise expected
utilities: expected utility with a single prior, max-min over a prior set,
or a variational form penalizing priors through a grounded cost.  Act values
take two batched steps, ``eu_table`` then ``aggregate``; scalar calls are
batches of one.  The same machinery supplies certainty equivalents and the
sup-distances between representations used by the convergence experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

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
class StateSpace:
    """Finite set of states of the world."""

    n_states: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("need at least one state")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"s{i}" for i in range(self.n_states)))
        if len(self.labels) != self.n_states:
            raise ValueError("labels must match n_states")


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

    @cached_property
    def _knots_arr(self) -> np.ndarray:
        return np.asarray(self.knots, dtype=float)

    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @property
    def is_strictly_increasing(self) -> bool:
        return all(v2 > v1 for v1, v2 in zip(self.values, self.values[1:]))

    def __call__(self, x) -> float | np.ndarray:
        out = np.interp(x, self._knots_arr, self._values_arr)
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
    return [
        Prior(tuple(c / steps for c in counts))
        for counts in compositions(steps, n_states)
    ]


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

    @cached_property
    def _prior_matrix(self) -> np.ndarray:
        return np.stack([p.as_array for p, c in zip(self.priors, self.costs) if math.isfinite(c)])

    @cached_property
    def _finite_costs(self) -> np.ndarray:
        return np.asarray([c for c in self.costs if math.isfinite(c)], dtype=float)


EU = "eu"
MAXMIN = "maxmin"
VARIATIONAL = "variational"


@dataclass(frozen=True)
class AAPreference:
    """A preference over acts: an index plus one of three aggregator kinds."""

    kind: str
    index: BernoulliIndex
    states: StateSpace
    prior: Prior | None = None
    priors: tuple[Prior, ...] = ()
    cost: CostFunction | None = None

    def __post_init__(self):
        n = self.states.n_states
        if self.kind == EU:
            if self.prior is None or self.prior.n_states != n:
                raise ShapeMismatchError("eu preference needs a prior over the states")
        elif self.kind == MAXMIN:
            if not self.priors or any(p.n_states != n for p in self.priors):
                raise ShapeMismatchError("maxmin preference needs priors over the states")
        elif self.kind == VARIATIONAL:
            if self.cost is None or self.cost.priors[0].n_states != n:
                raise ShapeMismatchError("variational preference needs a cost over the states")
        else:
            raise ValueError(f"unknown preference kind {self.kind!r}")

    @staticmethod
    def eu(index: BernoulliIndex, prior: Prior) -> "AAPreference":
        return AAPreference(EU, index, StateSpace(prior.n_states), prior=prior)

    @staticmethod
    def maxmin(index: BernoulliIndex, priors) -> "AAPreference":
        priors = tuple(priors)
        return AAPreference(MAXMIN, index, StateSpace(priors[0].n_states), priors=priors)

    @staticmethod
    def variational(index: BernoulliIndex, cost: CostFunction) -> "AAPreference":
        return AAPreference(
            VARIATIONAL, index, StateSpace(cost.priors[0].n_states), cost=cost
        )

    def value(self, f: Act) -> float:
        return act_value(self, f)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "index": self.index.to_dict(),
            "states": self.states.n_states,
            "interval": [self.index.interval.a, self.index.interval.b],
        }
        if self.kind == EU:
            out["prior"] = list(self.prior.weights)
        elif self.kind == MAXMIN:
            out["priors"] = [list(p.weights) for p in self.priors]
        else:
            out["cost"] = {
                "priors": [list(p.weights) for p in self.cost.priors],
                "costs": [c if math.isfinite(c) else "inf" for c in self.cost.costs],
            }
        return out

    @staticmethod
    def from_dict(d: dict) -> "AAPreference":
        iv = Interval(*d.get("interval", (0.0, 1.0)))
        index = BernoulliIndex.from_dict(d["index"], iv)
        kind = d["kind"]
        if kind == EU:
            return AAPreference.eu(index, Prior(tuple(d["prior"])))
        if kind == MAXMIN:
            return AAPreference.maxmin(index, [Prior(tuple(w)) for w in d["priors"]])
        if kind == VARIATIONAL:
            cost = CostFunction(
                tuple(Prior(tuple(w)) for w in d["cost"]["priors"]),
                tuple(math.inf if c == "inf" else float(c) for c in d["cost"]["costs"]),
            )
            return AAPreference.variational(index, cost)
        raise ValueError(f"unknown preference kind {kind!r}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def eu_table(indices, lotteries) -> np.ndarray:
    """Expected utility of each lottery under each index, shape (U, L).

    Each index is interpolated once, on the lotteries' pooled money points.
    Each entry is one contiguous dot, the one a lone lottery takes: a matmul
    would round some entries differently in the last bit.
    """
    if len({u.interval for u in indices} | {lot.interval for lot in lotteries}) > 1:
        raise IntervalMismatchError("lottery and index on different intervals")
    points = np.array(sorted({x for lot in lotteries for x in lot.support}))
    u_points = np.stack([u(points) for u in indices])  # (U, G)
    table = np.empty((len(indices), len(lotteries)))
    for c, lot in enumerate(lotteries):
        u_support = np.ascontiguousarray(u_points[:, np.searchsorted(points, lot.support_array)])
        table[:, c] = [np.dot(lot.probs_array, row) for row in u_support]
    return table


def aggregate(pref: AAPreference, z) -> np.ndarray:
    """Aggregate rows of statewise utilities, shape (..., S), into values (...).

    Each row takes the BLAS routine a lone vector takes, a dot with each prior
    or one matrix-vector product with the cost grid: stacked matmul on
    contiguous rows calls it once per row, so no row depends on its batch.
    """
    z, n = np.ascontiguousarray(z, dtype=float), pref.states.n_states
    if z.shape[-1:] != (n,):
        raise ShapeMismatchError(f"expected {n} statewise utilities, got shape {z.shape}")
    if pref.kind == VARIATIONAL:
        cost = pref.cost
        return np.min(np.matmul(cost._prior_matrix, z[..., None])[..., 0] + cost._finite_costs, -1)
    priors = pref.priors if pref.kind == MAXMIN else (pref.prior,)
    return reduce(np.minimum, (np.matmul(z[..., None, :], p.as_array[:, None])[..., 0, 0]
                               for p in priors))


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
    if f.n_states != pref.states.n_states:
        raise ShapeMismatchError("act and preference disagree on the state count")
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
    grid = np.union1d(u1._knots_arr, u2._knots_arr)
    return float(np.max(np.abs(u1(grid) - u2(grid))))


def rep_distance(pref1: AAPreference, pref2: AAPreference, grid: list[Act]) -> tuple[float, float]:
    """(dV, du): sup distances between representations on an evaluation grid.

    dV is taken over the given acts, du exactly over the index knot union.
    """
    if not grid:
        raise ValueError("rep_distance needs a nonempty act grid")
    n = pref1.states.n_states
    if pref2.states.n_states != n or any(f.n_states != n for f in grid):
        raise ShapeMismatchError("preferences and acts disagree on the state count")
    du = index_distance(pref1.index, pref2.index)
    # one table row per preference over the grid's distinct lotteries, keyed
    # by id(): the acts share lottery objects, and hashing a Lottery is slow
    lots = {id(lot): lot for f in grid for lot in f.per_state}
    col = {key: c for c, key in enumerate(lots)}
    at = np.array([[col[id(lot)] for lot in f.per_state] for f in grid])
    table = eu_table([pref1.index, pref2.index], list(lots.values()))
    v1, v2 = (aggregate(p, row[at]) for p, row in zip((pref1, pref2), table))
    return float(np.max(np.abs(v1 - v2))), du


def aggregator_distance(pref1: AAPreference, pref2: AAPreference, z_steps: int = 8) -> float:
    """Sup distance between aggregators on the statewise-utility lattice.

    The lattice is {0, 1/z_steps, ..., 1}^S, the default grid used when
    reporting aggregator convergence.
    """
    n = pref1.states.n_states
    if pref2.states.n_states != n:
        raise ShapeMismatchError("preferences disagree on the state count")
    axis = np.linspace(0.0, 1.0, z_steps + 1)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([axis] * n), indexing="ij")], axis=1)
    return float(np.max(np.abs(aggregate(pref1, pts) - aggregate(pref2, pts)), initial=0.0))
