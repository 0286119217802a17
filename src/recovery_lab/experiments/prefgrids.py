"""Candidate preference grids for recovery and uniqueness sweeps."""

from __future__ import annotations

from itertools import combinations

from .._jsonio import count_field, number_field
from ..aa_prefs import EU, AAPreference, BernoulliIndex, StateSpace, simplex_grid
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


def eu_grid(states: int, interval: Interval, prior_steps: int, knot_positions: list[float],
            value_steps: int) -> list[AAPreference]:
    """Expected-utility candidates: prior lattice x index-value lattice.

    Priors are ``simplex_grid(states, prior_steps)`` (one state: the trivial
    prior).  Order is deterministic: priors in lexicographic order, indices
    within.  Every candidate shares one state space.
    """
    indices, space = index_value_grid(interval, knot_positions, value_steps), StateSpace(states)
    return [AAPreference(EU, idx, space, prior=prior)
            for prior in simplex_grid(states, prior_steps) for idx in indices]


def grid_from_config(cfg: dict, interval: Interval) -> list[AAPreference]:
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
