"""Candidate preference grids for recovery and uniqueness sweeps."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

import numpy as np

from .._combinatorics import compositions
from .._jsonio import count_field, descriptor, number_field
from ..aa_prefs import AAPreference, BernoulliIndex, CostFunction, Prior
from ..errors import ShapeMismatchError
from ..lotteries import Interval


def index_value_grid(
    interval: Interval, knot_positions: list[float], value_steps: int
) -> list[BernoulliIndex]:
    """Piecewise-linear indices with interior values on a 1/value_steps grid.

    All strictly increasing assignments of interior values from
    {1/value_steps, ..., (value_steps-1)/value_steps}, in lexicographic
    order.
    """
    if any(not interval.a < p < interval.b for p in knot_positions):
        raise ValueError("interior knots must lie strictly inside the interval")
    knots = (interval.a, *sorted(knot_positions), interval.b)
    levels = [i / value_steps for i in range(1, value_steps)]
    combos = combinations(levels, len(knot_positions))
    return [BernoulliIndex(interval, knots, (0.0, *combo, 1.0)) for combo in combos]


class PrefGrid(Sequence):
    """Candidates as read-only arrays: member r has the index ``indices[index_of[r]]``
    (one of the U distinct ones) and the prior set ``priors[r]`` (K, S) with grounded
    costs ``costs[r]`` (K,), padded by slots at cost inf.  ``grid[r]`` builds member
    r's preference on demand, its cost over the finite slots; a slice or an array of
    positions is a sub-grid."""

    def __init__(self, indices, index_of, priors, costs):
        self.indices, self.index_of, self.priors, self.costs = tuple(indices), index_of, priors, costs
        index_of.flags.writeable = priors.flags.writeable = costs.flags.writeable = False

    @property
    def n_states(self) -> int:
        return self.priors.shape[-1]

    @classmethod
    def of(cls, prefs, states: int) -> "PrefGrid":
        """``prefs`` as a grid over ``states`` states: a ``PrefGrid`` as it is, a
        list packed once (indices told apart by ``id()``: hashing one is slow).
        A preference over another state count raises ``ShapeMismatchError``."""
        got = {prefs.n_states} if isinstance(prefs, PrefGrid) else {p.n_states for p in prefs}
        if got - {states}:
            raise ShapeMismatchError(f"preferences over {sorted(got)} states, acts over {states}")
        if isinstance(prefs, PrefGrid):
            return prefs
        indices = {id(p.index): p.index for p in prefs}
        row_of = {key: r for r, key in enumerate(indices)}
        width = max((len(p.prior_set[1]) for p in prefs), default=1)
        priors, costs = np.zeros((len(prefs), width, states)), np.full((len(prefs), width), np.inf)
        for r, p in enumerate(prefs):
            priors[r, : len(p.prior_set[1])], costs[r, : len(p.prior_set[1])] = p.prior_set
        index_of = np.array([row_of[id(p.index)] for p in prefs], int)
        return cls(indices.values(), index_of, priors, costs)

    def __len__(self) -> int:
        return len(self.index_of)

    def __getitem__(self, r):
        if isinstance(r, (slice, np.ndarray)):
            return PrefGrid(self.indices, self.index_of[r], self.priors[r], self.costs[r])
        r = range(len(self))[r]  # an IndexError ends iteration
        used = np.isfinite(self.costs[r])
        priors = tuple(Prior(tuple(w)) for w in self.priors[r][used].tolist())
        cost = CostFunction(priors, tuple(self.costs[r][used].tolist()))
        return AAPreference(self.indices[self.index_of[r]], cost)


def eu_grid(states: int, interval: Interval, prior_steps: int, knot_positions: list[float],
            value_steps: int) -> PrefGrid:
    """Expected-utility candidates: prior lattice x index-value lattice.

    Prior rows are the weights of ``simplex_grid(states, prior_steps)``, read
    straight from the composition array (one state: the trivial prior).  Order
    is deterministic: priors in lexicographically decreasing order, indices
    within.  Each index is built once, and no member until it is asked for.
    """
    indices = index_value_grid(interval, knot_positions, value_steps)
    priors = compositions(prior_steps, states) / prior_steps
    return PrefGrid(indices, np.tile(np.arange(len(indices)), len(priors)),
                    np.repeat(priors, len(indices), axis=0)[:, None],
                    np.zeros((len(priors) * len(indices), 1)))


def grid_from_config(cfg: dict, interval: Interval) -> PrefGrid:
    """Build a candidate grid from its JSON descriptor."""
    _, g = descriptor(cfg, {"eu_grid": ("states", "prior_steps", "knot_positions", "value_steps")})
    return eu_grid(
        count_field(g, "states", 1),
        interval,
        count_field(g, "prior_steps", 1, default=1),
        [float(x) for x in number_field(g, "knot_positions", many=True)],
        count_field(g, "value_steps", 1),
    )
