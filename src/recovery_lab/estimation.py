"""Empirical-risk estimation of utilities from noisy binary choices.

The estimator maximizes the count of rationalized records over a finite
family grid (the objective is a 0/1 count, so the search is exhaustive
plus a deterministic local refinement rather than gradient-based).  The
supporting cast: a grid sup-norm metric, Monte Carlo estimates of the
probability that a candidate ranking matches noisy choices, the
separation gap that identifies the truth, a brute-force shattering search,
and the finite-sample bound evaluator.  A list of utilities is valued over
a point set by one ``wald_env.value_rows`` call, a single one by ``value_batch``.

``erm_fit`` and ``vc_lower_bound`` read the sign of v(x) - v(y) per grid member
and pair from one kernel, ``_signs``, exact outside a rounding band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialCapError, EmptyGridError, ShapeMismatchError
from .noisy_choice import Dataset, NoiseModel, q_eval_batch
from .wald_env import (
    COBB_DOUGLAS,
    LINEAR,
    Domain,
    UtilityFamily,
    WaldGrid,
    WaldUtility,
    lattice_points,
    power_table,
    value_rows,
)


def score_from_values(chosen_values: np.ndarray, rejected_values: np.ndarray) -> float:
    """Fraction of records whose chosen option is weakly better."""
    n = len(chosen_values)
    if n == 0:
        return 1.0
    return float(np.count_nonzero(chosen_values >= rejected_values)) / n


def _check_record_dim(ds: Dataset, dim: int) -> None:
    if ds.chosen.shape[1] != dim:
        raise ShapeMismatchError(
            f"records have dimension {ds.chosen.shape[1]}, utility expects {dim}"
        )


def empirical_score(u: WaldUtility, ds: Dataset) -> float:
    """Fraction of dataset records rationalized by u (weak inequality).

    The empty dataset scores 1.0 by convention so the fit is total.
    """
    _check_record_dim(ds, u.dim)
    return score_from_values(u.value_batch(ds.chosen), u.value_batch(ds.rejected))


@dataclass(frozen=True)
class ErmResult:
    """Outcome of the grid search: the winner plus audit information."""

    best: WaldUtility
    score: float
    n: int
    ties: int
    search_log: dict

    def to_dict(self) -> dict:
        return {
            "best": self.best.to_dict(),
            "score": self.score,
            "n": self.n,
            "ties": self.ties,
            "search_log": self.search_log,
        }


def erm_fit(family: UtilityFamily, ds: Dataset, refinements: int = 2) -> ErmResult:
    """Maximize the rationalized count over the family grid.

    Exhaustive scoring of every grid member, then ``refinements`` local
    passes with halved parameter steps around the incumbent.  Ties break
    toward the lexicographically smallest parameter vector, so the result
    is deterministic given the grid specification and the dataset.

    Each level's ``WaldGrid`` is scored by ``_scores``, every score equal to
    ``score_from_values`` of the member's ``value_rows``, bit for bit.  The
    winner is chosen on its ``params`` rows in order, skipping a refinement
    candidate equal to the running best.
    """
    if refinements < 0:
        raise ValueError(f"refinements must be >= 0, got {refinements}")
    members = family.members()
    if not members:
        raise EmptyGridError("utility family has an empty grid")
    _check_record_dim(ds, family.dim)
    scores: list[float] = []
    best, best_row, best_score = None, None, -math.inf
    bands: dict = {}  # rho -> its _band over the records, which a refinement level reuses
    for level in range(refinements + 1):
        grid, won = (family.refine_around(best, level) if level else members), None
        for r, (row, s) in enumerate(zip(grid.params.tolist(), _scores(grid, ds, bands).tolist())):
            if level and row == best_row:
                continue
            scores.append(s)
            if s > best_score or (s == best_score and row < best_row):
                won, best_row, best_score = r, row, s
        if won is not None:
            best = grid[won]
    ties = scores.count(best_score)
    log = {
        "grid_size": len(members),
        "refinement_levels": refinements,
        "evaluated": len(scores),
    }
    return ErmResult(best, best_score, ds.n, ties, log)


_SLAB_CELLS = 1 << 16  # member x pair cells per sign matmul, which bounds its memory


def _scores(grid: WaldGrid, ds: Dataset, bands: dict) -> np.ndarray:
    """``score_from_values`` of each member of grid over ds: its share of records of sign >= 0.

    ``bands`` (rho -> ``_band`` over ds) keeps only the rho groups that hold the
    best score so far, so the next level finds its incumbent's there."""
    scores = np.ones(len(grid))  # the empty dataset's
    if ds.n:
        group_best: dict = {}
        for members, cells in _signs(grid, ds.chosen, ds.rejected, bands):
            scores[members] = (cells >= 0).sum(axis=1, dtype=np.int32) / ds.n
            rho = grid.rhos[grid.rho_of[members[0]]]
            group_best[rho] = max(group_best.get(rho, -1.0), scores[members].max())
            top = max(group_best.values())
            for r in [r for r in bands if r != rho and group_best.get(r, -1.0) < top]:
                del bands[r]
    return scores


def _signs(grid: WaldGrid, xs: np.ndarray, ys: np.ndarray, bands: dict | None = None):
    """Yield ``(members, cells)`` slabs over grid of at most ``_SLAB_CELLS`` cells:
    cells[i, j] is the sign (-1, 0 or +1) of v(xs[j]) - v(ys[j]) for member
    members[i], v its ``value_rows`` values, over n >= 1 pairs.  Outside the band
    of ``_band`` that is the sign of g; a member with a cell inside it is valued
    through ``value_rows``, so 0 means an exact tie.  ``bands`` keeps each rho's
    ``_band`` over these pairs for a later grid over the same pairs."""
    step, bands = max(1, _SLAB_CELLS // len(xs)), {} if bands is None else bands
    for k, rho in enumerate(grid.rhos):
        group = np.flatnonzero(grid.rho_of == k)
        if rho not in bands:
            bands[rho] = _band(grid.kind, rho, xs, ys)
        diff, band = bands[rho]
        for start in range(0, len(group), step):
            members = group[start : start + step]
            g = grid.weights[members] @ diff
            cells = (g > band).view(np.int8) - (g < -band).view(np.int8)
            undecided = (cells == 0).any(axis=1)
            if undecided.any():
                us = [grid[i] for i in members[undecided]]
                vx, vy = (np.array([*value_rows(us, x)]) for x in (xs, ys))
                cells[undecided] = (vx > vy).view(np.int8) - (vx < vy).view(np.int8)
            yield members, cells


def _band(kind: str, rho: float | None, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(diff, band)`` of one (kind, rho) group over the pairs (xs[j], ys[j]): for
    each member w, g = w @ diff has the sign of v(x) - v(y) where |g| > band.

    With p_x, p_y the pair's power tables (``power_table``), a member's values
    are v = f(s) of the dots s_x = p_x @ w, s_y = p_y @ w, with f(s) = s for
    linear and s**(1/rho) for CES: increasing for rho > 0, decreasing for rho
    < 0, where diff = p_y - p_x turns the sign (else diff = p_x - p_y).  Per pair

        band = K * d * eps * max_k(|p_x| + |p_y|) + floor,   K = 8 * max(1, |rho|).

    Why that is exact.  Write M for the max above and u = eps / 2 for the unit
    roundoff.  Each computed dot, in any summation order, is within d*u*M of
    its exact value (w lies on the simplex), up to underflow errors below the
    floor, and g is within (d + 1)*u*M of the exact s_x - s_y.  So |g| > band
    gives the computed s_x - s_y the sign of g, with a gap above
    6 * max(1, |rho|) * d * eps * M.  The smaller dot is at most M, so the larger
    exceeds it by a factor above 1 + 6 * max(1, |rho|) * d * eps; the power
    1/rho leaves a factor above 1 + 5 * d * eps between the two values, more
    than two pow calls of under 2 ulps each can close.

    The floor is the smallest normal and, for rho > 0, the s below which
    s**(1/rho) is under four times that, so a decided larger value is normal.
    A zero diff and an infinite band leave to ``value_rows`` a Cobb-Douglas
    group, and a group where a bundle is worth zero (a zero coordinate at
    rho < 0), or where a value might not be finite (the table's ``top`` is
    inf) or, for rho < 0, might fall below four times the smallest normal.
    """
    n, d = xs.shape
    undecided = np.zeros((d, n)), np.full(n, np.inf)
    if kind == COBB_DOUGLAS:
        return undecided
    (p_x, pos_x, top_x), (p_y, pos_y, top_y) = (power_table(v, kind, rho) for v in (xs, ys))
    if max(top_x, top_y) == np.inf or (pos_x is not None and not (pos_x.all() and pos_y.all())):
        return undecided
    scale = np.max(np.abs(p_x) + np.abs(p_y), axis=1)
    tiny = np.finfo(float).tiny
    floor = max(tiny, (4.0 * tiny) ** rho) if kind != LINEAR and rho > 0.0 else tiny
    with np.errstate(over="ignore"):
        if kind != LINEAR and rho < 0.0 and (2.0 * scale.max()) ** (1.0 / rho) < 4.0 * tiny:
            return undecided
    band = 8.0 * max(1.0, abs(rho or 0.0)) * d * np.finfo(float).eps * scale + floor
    return np.ascontiguousarray((p_y - p_x if kind != LINEAR and rho < 0.0 else p_x - p_y).T), band


def rho(u1: WaldUtility, u2: WaldUtility, grid: np.ndarray) -> float:
    """Sup distance over a fixed evaluation grid.

    The maximizing grid point witnesses |u1(x) - u2(x)| >= rho, the only
    property the recovery analysis needs from the metric.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise EmptyGridError("rho needs a nonempty evaluation grid")
    return float(np.max(np.abs(np.subtract(*value_rows([u1, u2], grid)))))


def _pair_batches(domain: Domain, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng([seed, 0x5EED])
    return domain.sample_batch(rng, m), domain.sample_batch(rng, m)


def _mean_and_stderr(terms: np.ndarray) -> tuple[float, float]:
    est = float(np.mean(terms))
    if len(terms) < 2:
        return est, 0.0
    return est, float(np.std(terms, ddof=1) / math.sqrt(len(terms)))


def mu_estimate(
    pref_eval: WaldUtility,
    pref_true: WaldUtility,
    noise: NoiseModel,
    domain: Domain,
    m: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo probability that a noisy choice agrees with pref_eval.

    Integrand: 1{pref_eval ranks x over y} * q(x, y; pref_true) over m
    independent pairs from the sampling measure.
    """
    xs, ys = _pair_batches(domain, m, seed)
    eval_x, true_x = value_rows([pref_eval, pref_true], xs)
    eval_y, true_y = value_rows([pref_eval, pref_true], ys)
    return _mean_and_stderr((eval_x >= eval_y) * q_eval_batch(noise, true_x, true_y))


def _gap(pref_true, pref_other, noise: NoiseModel, domain: Domain, m: int, seed: int) -> tuple[float, float]:
    """mu(true, true) - mu(other, true) over m common pairs, and its standard error."""
    xs, ys = _pair_batches(domain, m, seed)
    true_x, other_x = value_rows([pref_true, pref_other], xs)
    true_y, other_y = value_rows([pref_true, pref_other], ys)
    q = q_eval_batch(noise, true_x, true_y)
    own, other = (true_x >= true_y).astype(float), (other_x >= other_y).astype(float)
    return _mean_and_stderr((own - other) * q)


def separation_estimate(
    pref_true: WaldUtility,
    pref_other: WaldUtility,
    noise: NoiseModel,
    domain: Domain,
    m: int,
    seed: int,
    eval_grid: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Estimate mu(true, true) - mu(other, true) with common random numbers.

    Both terms use the same m pairs, so the paired differences drive the
    standard error and the gap is exactly zero when the two utilities rank
    every sampled pair identically.
    """
    gap, stderr = _gap(pref_true, pref_other, noise, domain, m, seed)
    if eval_grid is None:
        eval_grid = lattice_points(domain, 16)
    return gap, stderr, rho(pref_true, pref_other, eval_grid)


@dataclass(frozen=True)
class SeparationScan:
    """Gap-versus-distance scatter for random member pairs of one family."""

    rows: tuple[tuple[float, float, float], ...]  # (rho, gap, stderr)
    empirical_constant: float
    exponent: int
    violations: int
    skipped: int


def separation_exponent_check(
    family: UtilityFamily,
    noise: NoiseModel,
    domain: Domain,
    n_pairs: int,
    m: int,
    exponent: int,
    seed: int = 0,
    eval_grid: np.ndarray | None = None,
) -> SeparationScan:
    """Sample distinct member pairs and report min gap / rho**exponent.

    Pairs with rho below 1e-9 are skipped (and counted); a violation is a
    gap more than three standard errors below zero, which the separation
    property says should never happen.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    members = family.members()
    if len(members) < 2:
        raise EmptyGridError("need at least two members to compare")
    if eval_grid is None:
        eval_grid = lattice_points(domain, 16)
    rng = np.random.default_rng([seed, 0xC0DE])
    rows = []
    skipped = 0
    violations = 0
    best_c = math.inf
    for t in range(n_pairs):
        i, j = rng.choice(len(members), size=2, replace=False)
        true, other = members[i], members[j]
        r = rho(true, other, eval_grid)
        if r < 1e-9:
            skipped += 1
            continue
        gap, stderr = _gap(true, other, noise, domain, m, seed=int(rng.integers(2**31)))
        rows.append((r, gap, stderr))
        if gap + 3 * stderr < 0:
            violations += 1
        best_c = min(best_c, gap / r**exponent)
    return SeparationScan(tuple(rows), best_c, exponent, violations, skipped)


def vc_lower_bound(
    family: UtilityFamily,
    domain: Domain,
    k: int,
    trials: int,
    seed: int = 0,
    proposals: list | None = None,
    budget: int = 20_000_000,
) -> int:
    """Largest k' <= k with a witnessed shattered set of k' choice problems.

    A problem set is shattered when every one of the 2**k' labelings is
    perfectly rationalized by some grid member (weak inequalities, so exact
    utility ties realize both labels).  Random problem draws almost surely
    contain no ties, which makes tie-built witnesses unreachable by chance;
    ``proposals`` lets callers put constructed candidate sets, each a list
    of (x, y) problems, in front of the random search.  The check over labelings and members is exhaustive,
    so any reported k' is a genuine lower bound.
    """
    if k < 1 or trials < 1:
        raise ValueError("k and trials must be >= 1")
    grid = family.members()
    if not grid:
        raise EmptyGridError("utility family has an empty grid")
    if (size := k * (2**k) * len(grid)) > budget:
        raise CombinatorialCapError(f"shattering search size k*2^k*grid = {size} exceeds budget {budget}")

    def shattered(xs: np.ndarray, ys: np.ndarray) -> bool:
        """Every labeling of the (k, d) problems xs[i] vs ys[i] is rationalized."""
        signs = np.concatenate([cells for _, cells in _signs(grid, xs, ys)])  # (G, k)
        # labels[l, j]: labeling l has "y chosen" on problem j
        labels = ((np.arange(2 ** len(xs))[:, None] >> np.arange(len(xs))) & 1).astype(bool)
        ok = np.where(labels[:, None, :], signs <= 0, signs >= 0).all(axis=2)  # (2**k, G)
        return bool(ok.any(axis=1).all())

    proposed = [np.asarray(c, dtype=float) for c in proposals or () if c]  # each (k', 2, d)
    for k_try in range(k, 0, -1):
        for cand in proposed:
            if len(cand) == k_try and shattered(cand[:, 0], cand[:, 1]):
                return k_try
        for t in range(trials):
            rng = np.random.default_rng([seed, k_try, t])
            # x of problem i in row 2i and y in row 2i + 1: the per-problem draw order
            pts = domain.sample_batch(rng, 2 * k_try).reshape(k_try, 2, -1)
            if shattered(pts[:, 0], pts[:, 1]):
                return k_try
    return 0


@dataclass(frozen=True)
class BoundParams:
    """Constants of the finite-sample deviation bound."""

    K: float
    C_bar: float
    V: int
    D: int
    delta: float

    def __post_init__(self):
        if self.K <= 0 or self.C_bar <= 0:
            raise ValueError("K and C_bar must be positive")
        if self.V < 1 or self.D < 1:
            raise ValueError("V and D must be positive integers")
        if not 0.0 < self.delta <= 1.0:
            # delta = 1 is allowed: the log term just vanishes
            raise ValueError("delta must lie in (0, 1]")


def bound_eval(bp: BoundParams, n: int) -> float:
    """C_bar * (K * sqrt(V/n) + sqrt(2 ln(1/delta) / n)) ** (1/D)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    inner = bp.K * math.sqrt(bp.V / n) + math.sqrt(2.0 * math.log(1.0 / bp.delta) / n)
    return bp.C_bar * inner ** (1.0 / bp.D)


def disagreement(pref1, pref2, domain, m: int, seed: int) -> float:
    """Monte Carlo probability that two preferences strictly disagree.

    Computable stand-in for closeness of preferences: two relations are
    near exactly when randomly drawn problems rarely get opposite strict
    rankings.  Works for any objects with value/value_batch over the
    domain's samples.
    """
    xs, ys = _pair_batches(domain, m, seed)
    a1 = pref1.value_batch(xs) - pref1.value_batch(ys)
    a2 = pref2.value_batch(xs) - pref2.value_batch(ys)
    return float(strict_disagreement(a1, a2))


def strict_disagreement(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The share of problems (last axis) on which two value differences have
    strictly opposite signs: the closeness proxy every report names."""
    return np.mean(((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0)), axis=-1)
