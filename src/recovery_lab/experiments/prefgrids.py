"""Candidate preference grids for recovery and uniqueness sweeps."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

import numpy as np

from .._jsonio import count_field, number_field
from ..aa_prefs import EU, AAPreference, BernoulliIndex, Prior, StateSpace, simplex_grid
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


class EUGrid(Sequence):
    """Expected-utility candidates held as read-only arrays: member r has the
    index ``indices[index_of[r]]`` (one of the U distinct ones), the prior
    ``priors[r]`` and the shared ``states``.  ``grid[r]`` builds its
    ``AAPreference`` on demand; a slice or an array of positions is a sub-grid.
    """

    def __init__(self, indices, index_of: np.ndarray, priors: np.ndarray, states: StateSpace):
        self.indices, self.index_of, self.priors, self.states = tuple(indices), index_of, priors, states
        index_of.flags.writeable = priors.flags.writeable = False

    def __len__(self) -> int:
        return len(self.index_of)

    def __getitem__(self, r):
        if isinstance(r, (slice, np.ndarray)):
            return EUGrid(self.indices, self.index_of[r], self.priors[r], self.states)
        r = range(len(self))[r]  # an IndexError ends iteration
        prior = Prior(tuple(self.priors[r].tolist()))
        return AAPreference(EU, self.indices[self.index_of[r]], self.states, prior=prior)


def eu_grid(states: int, interval: Interval, prior_steps: int, knot_positions: list[float],
            value_steps: int) -> EUGrid:
    """Expected-utility candidates: prior lattice x index-value lattice.

    Priors are ``simplex_grid(states, prior_steps)`` (one state: the trivial
    prior).  Order is deterministic: priors in lexicographic order, indices
    within.  Each index is built once, and no member until it is asked for.
    """
    indices = index_value_grid(interval, knot_positions, value_steps)
    priors = np.array([p.weights for p in simplex_grid(states, prior_steps)])
    return EUGrid(indices, np.tile(np.arange(len(indices)), len(priors)),
                  np.repeat(priors, len(indices), axis=0), StateSpace(states))


def grid_from_config(cfg: dict, interval: Interval) -> EUGrid:
    """Build a candidate grid from its JSON descriptor."""
    if "eu_grid" in cfg:
        g = cfg["eu_grid"]
        return eu_grid(
            count_field(g, "states", 1),
            interval,
            count_field(g, "prior_steps", 1, default=1),
            [float(x) for x in number_field(g, "knot_positions", many=True)],
            count_field(g, "value_steps", 1),
        )
    raise ValueError(f"unknown candidate grid descriptor {sorted(cfg)}")
