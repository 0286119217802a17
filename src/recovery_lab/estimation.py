"""Empirical-risk estimation of utilities from noisy binary choices.

The estimator maximizes the count of rationalized records over a finite
family grid (the objective is a 0/1 count, so the search is exhaustive
plus a deterministic local refinement rather than gradient-based).  The
supporting cast: a grid sup-norm metric, Monte Carlo estimates of the
probability that a candidate ranking matches noisy choices, the
separation gap that identifies the truth, a brute-force shattering search,
and the finite-sample bound evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CombinatorialCapError, EmptyGridError, ShapeMismatchError
from .noisy_choice import Dataset, NoiseModel, q_eval_batch
from .wald_env import Domain, UtilityFamily, WaldUtility, lattice_points


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
    """
    members = family.members()
    if not members:
        raise EmptyGridError("utility family has an empty grid")
    _check_record_dim(ds, family.dim)

    def score(u: WaldUtility) -> float:
        return score_from_values(u.value_batch(ds.chosen), u.value_batch(ds.rejected))

    evaluated: list[tuple[float, WaldUtility]] = []

    def better(cand_score, cand, best_score, best):
        if cand_score > best_score:
            return True
        return cand_score == best_score and cand.param_tuple() < best.param_tuple()

    best = members[0]
    best_score = score(best)
    evaluated.append((best_score, best))
    for m in members[1:]:
        s = score(m)
        evaluated.append((s, m))
        if better(s, m, best_score, best):
            best, best_score = m, s
    for level in range(1, refinements + 1):
        for cand in family.refine_around(best, level):
            if cand == best:
                continue
            s = score(cand)
            evaluated.append((s, cand))
            if better(s, cand, best_score, best):
                best, best_score = cand, s
    ties = sum(1 for s, _ in evaluated if s == best_score)
    log = {
        "grid_size": len(members),
        "refinement_levels": refinements,
        "evaluated": len(evaluated),
    }
    return ErmResult(best, best_score, ds.n, ties, log)


def rho(u1: WaldUtility, u2: WaldUtility, grid: np.ndarray) -> float:
    """Sup distance over a fixed evaluation grid.

    The maximizing grid point witnesses |u1(x) - u2(x)| >= rho, the only
    property the recovery analysis needs from the metric.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise EmptyGridError("rho needs a nonempty evaluation grid")
    return float(np.max(np.abs(u1.value_batch(grid) - u2.value_batch(grid))))


def _pair_batches(domain: Domain, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
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
    if m < 1:
        raise ValueError("m must be >= 1")
    xs, ys = _pair_batches(domain, m, seed)
    agree = pref_eval.value_batch(xs) >= pref_eval.value_batch(ys)
    q = q_eval_batch(noise, pref_true.value_batch(xs), pref_true.value_batch(ys))
    return _mean_and_stderr(agree * q)


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
    xs, ys = _pair_batches(domain, m, seed)
    q = q_eval_batch(noise, pref_true.value_batch(xs), pref_true.value_batch(ys))
    own = (pref_true.value_batch(xs) >= pref_true.value_batch(ys)).astype(float)
    other = (pref_other.value_batch(xs) >= pref_other.value_batch(ys)).astype(float)
    gap, stderr = _mean_and_stderr((own - other) * q)
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
        gap, stderr, _ = separation_estimate(
            true, other, noise, domain, m, seed=int(rng.integers(2**31)), eval_grid=eval_grid
        )
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
    members = family.members()
    if not members:
        raise EmptyGridError("utility family has an empty grid")
    if k * (2**k) * len(members) > budget:
        raise CombinatorialCapError(
            f"shattering search size k*2^k*grid = {k * (2 ** k) * len(members)} "
            f"exceeds budget {budget}"
        )

    def shattered(xs: np.ndarray, ys: np.ndarray) -> bool:
        """Every labeling of the (k, d) problems xs[i] vs ys[i] is rationalized."""
        vx = np.stack([mbr.value_batch(xs) for mbr in members])  # (G, k)
        vy = np.stack([mbr.value_batch(ys) for mbr in members])
        # labels[l, j]: labeling l has "y chosen" on problem j
        labels = ((np.arange(2 ** len(xs))[:, None] >> np.arange(len(xs))) & 1).astype(bool)
        ok = np.where(labels[:, None, :], vy >= vx, vx >= vy).all(axis=2)  # (2**k, G)
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
    if m < 1:
        raise ValueError("m must be >= 1")
    xs, ys = _pair_batches(domain, m, seed)
    a1 = pref1.value_batch(xs) - pref1.value_batch(ys)
    a2 = pref2.value_batch(xs) - pref2.value_batch(ys)
    flips = ((a1 > 0) & (a2 < 0)) | ((a1 < 0) & (a2 > 0))
    return float(np.mean(flips))
