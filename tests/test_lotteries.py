"""Lottery, FOSD order, and lattice tests.

The oracle here is deliberately independent of the library: CDFs are
evaluated by plain Python sums over the support, and join/meet are rebuilt
from pointwise min/max of those CDF values on the merged support.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab.errors import EnumerationCapError, IntervalMismatchError
from recovery_lab.lotteries import (
    PROB_TOL,
    UNIT,
    DominanceVerdict,
    Interval,
    Lottery,
    cdf_eval,
    delta,
    enumerate_rational_lotteries,
    fosd_compare,
    lottery,
    lottery_join,
    lottery_meet,
    same_distribution,
    squeeze_bounds,
)

# ---------------------------------------------------------------------------
# oracle helpers (no library internals)
# ---------------------------------------------------------------------------


def oracle_cdf(p, r):
    return sum(q for x, q in zip(p.support, p.probs) if x <= r)


def oracle_merged(p, q):
    return sorted(set(p.support) | set(q.support))


def oracle_extreme(p, q, op):
    """Rebuild join (op=min) or meet (op=max) from scratch."""
    grid = oracle_merged(p, q)
    cdf = [op(oracle_cdf(p, r), oracle_cdf(q, r)) for r in grid]
    masses, prev = [], 0.0
    for c in cdf:
        masses.append(c - prev)
        prev = c
    pts = [(x, m) for x, m in zip(grid, masses) if m > 1e-15]
    return pts


def cdf_close(p, q, tol=PROB_TOL):
    grid = oracle_merged(p, q)
    return all(abs(oracle_cdf(p, r) - oracle_cdf(q, r)) <= tol for r in grid)


def matches_oracle(result, pts, tol=0.0):
    """Support exactly equal, masses within tol after canonicalization."""
    if len(result.support) != len(pts):
        return False
    return all(
        x == ox and abs(q - oq) <= tol
        for (x, q), (ox, oq) in zip(zip(result.support, result.probs), pts)
    )


def random_lottery(rng, interval=UNIT, max_support=5):
    k = rng.integers(1, max_support + 1)
    pts = rng.choice(np.linspace(interval.a, interval.b, 11), size=k, replace=False)
    w = rng.random(k)
    return lottery(interval, pts.tolist(), (w / w.sum()).tolist())


# ---------------------------------------------------------------------------
# construction and CDF
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            Lottery(UNIT, (0.0, 1.0), (0.5, 0.6))

    def test_validates_sorted(self):
        with pytest.raises(ValueError):
            Lottery(UNIT, (1.0, 0.0), (0.5, 0.5))

    def test_validates_interval(self):
        with pytest.raises(ValueError):
            Lottery(UNIT, (2.0,), (1.0,))

    def test_canonicalizer_merges_and_drops(self):
        p = lottery(UNIT, [0.5, 0.5, 0.0], [0.25, 0.25, 0.5])
        assert p.support == (0.0, 0.5)
        assert p.probs == (0.5, 0.5)

    def test_interval_requires_order(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)


class TestCdf:
    def test_below_support(self):
        assert cdf_eval(delta(0.5), 0.4) == 0.0

    def test_right_continuous_at_atom(self):
        assert cdf_eval(delta(0.5), 0.5) == 1.0

    def test_mass_sum(self):
        p = lottery(UNIT, [0.0, 1.0], [0.5, 0.5])
        assert cdf_eval(p, 0.5) == 0.5

    def test_agrees_with_oracle_on_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_lottery(rng)
            r = rng.random()
            assert cdf_eval(p, r) == oracle_cdf(p, r)
            assert p.cdf_on(np.array([r]))[0] == oracle_cdf(p, r)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    cdf_eval(p, bad)


# ---------------------------------------------------------------------------
# FOSD comparison
# ---------------------------------------------------------------------------


class TestFosd:
    def test_higher_sure_payment(self):
        assert fosd_compare(delta(1.0), delta(0.0)) is DominanceVerdict.STRICTLY_DOMINATES

    def test_reflexive_equal(self):
        p = lottery(UNIT, [0.0, 1.0], [0.3, 0.7])
        assert fosd_compare(p, p) is DominanceVerdict.EQUAL

    def test_crossing_cdfs_incomparable(self):
        p = lottery(UNIT, [0.0, 1.0], [0.5, 0.5])
        q = delta(0.6)
        # brute-force check on merged support: F_p(0)=0.5>0=F_q(0) but
        # F_p(0.6)=0.5<1=F_q(0.6)
        assert oracle_cdf(p, 0.0) > oracle_cdf(q, 0.0)
        assert oracle_cdf(p, 0.6) < oracle_cdf(q, 0.6)
        assert fosd_compare(p, q) is DominanceVerdict.INCOMPARABLE

    def test_interval_mismatch(self):
        with pytest.raises(IntervalMismatchError):
            fosd_compare(delta(0.5), delta(0.5, Interval(0.0, 2.0)))

    def test_antisymmetry_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p, q = random_lottery(rng), random_lottery(rng)
            v, w = fosd_compare(p, q), fosd_compare(q, p)
            assert v is w.flipped()
            if v.weakly_dominates and w.weakly_dominates:
                assert v is DominanceVerdict.EQUAL


# ---------------------------------------------------------------------------
# join / meet
# ---------------------------------------------------------------------------


class TestLattice:
    def test_chain_join(self):
        assert same_distribution(lottery_join(delta(0.3), delta(0.7)), delta(0.7))

    def test_idempotent(self):
        p = lottery(UNIT, [0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
        assert same_distribution(lottery_join(p, p), p)
        assert same_distribution(lottery_meet(p, p), p)

    def test_join_of_crossing_pair(self):
        p = lottery(UNIT, [0.0, 1.0], [0.5, 0.5])
        q = delta(0.5)
        j = lottery_join(p, q)
        # pointwise CDF min on {0, 0.5, 1} puts mass 0.5 on 0.5 and 0.5 on 1
        assert matches_oracle(j, [(0.5, 0.5), (1.0, 0.5)])

    def test_join_meet_match_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p, q = random_lottery(rng), random_lottery(rng)
            assert matches_oracle(lottery_join(p, q), oracle_extreme(p, q, min))
            assert matches_oracle(lottery_meet(p, q), oracle_extreme(p, q, max))

    def test_join_dominates_both(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            p, q = random_lottery(rng), random_lottery(rng)
            assert fosd_compare(lottery_join(p, q), p).weakly_dominates
            assert fosd_compare(lottery_join(p, q), q).weakly_dominates
            assert fosd_compare(lottery_meet(p, q), p).weakly_dominated
            assert fosd_compare(lottery_meet(p, q), q).weakly_dominated

    def test_lattice_laws_on_random_triples(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            p, q, r = (random_lottery(rng) for _ in range(3))
            assert same_distribution(lottery_join(p, q), lottery_join(q, p))
            assert same_distribution(lottery_meet(p, q), lottery_meet(q, p))
            assert same_distribution(
                lottery_join(p, lottery_join(q, r)), lottery_join(lottery_join(p, q), r)
            )
            assert same_distribution(
                lottery_meet(p, lottery_meet(q, r)), lottery_meet(lottery_meet(p, q), r)
            )
            assert same_distribution(lottery_join(p, lottery_meet(p, q)), p)
            assert same_distribution(lottery_meet(p, lottery_join(p, q)), p)

    @settings(max_examples=100, deadline=None)
    @given(
        masses=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        masses2=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_join_is_least_upper_bound(self, masses, masses2, data):
        grid = np.linspace(0.0, 1.0, 9)

        def build(ms):
            pts = data.draw(
                st.lists(
                    st.sampled_from(range(9)),
                    min_size=len(ms),
                    max_size=len(ms),
                    unique=True,
                )
            )
            total = sum(ms)
            return lottery(UNIT, [grid[i] for i in pts], [m / total for m in ms])

        p, q = build(masses), build(masses2)
        j = lottery_join(p, q)
        # upper bound, and no smaller CDF-wise upper bound exists on the grid:
        # the CDF min is itself achieved, so any upper bound r has F_r <= F_j.
        assert fosd_compare(j, p).weakly_dominates
        assert fosd_compare(j, q).weakly_dominates
        m = lottery_meet(p, q)
        assert fosd_compare(m, p).weakly_dominated
        assert fosd_compare(m, q).weakly_dominated


# ---------------------------------------------------------------------------
# squeeze bounds
# ---------------------------------------------------------------------------


class TestSqueeze:
    def test_constant_sequence(self):
        p = lottery(UNIT, [0.0, 1.0], [0.4, 0.6])
        lower, upper = squeeze_bounds([p, p, p])
        for lo, up in zip(lower, upper):
            assert same_distribution(lo, p)
            assert same_distribution(up, p)

    def test_chain_case(self):
        lower, upper = squeeze_bounds([delta(0.2), delta(0.4)])
        assert same_distribution(lower[0], delta(0.2))
        assert same_distribution(lower[1], delta(0.4))
        assert same_distribution(upper[0], delta(0.4))
        assert same_distribution(upper[1], delta(0.4))

    def test_matches_pairwise_fold_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            seq = [random_lottery(rng) for _ in range(4)]
            lower, upper = squeeze_bounds(seq)
            for n in range(4):
                lo = seq[-1]
                up = seq[-1]
                for x in reversed(seq[n:-1]):
                    lo = lottery_meet(x, lo)
                    up = lottery_join(x, up)
                assert same_distribution(lower[n], lo)
                assert same_distribution(upper[n], up)

    def test_monotone_and_sandwich(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            seq = [random_lottery(rng) for _ in range(5)]
            lower, upper = squeeze_bounds(seq)
            for n in range(5):
                assert fosd_compare(lower[n], seq[n]).weakly_dominated
                assert fosd_compare(upper[n], seq[n]).weakly_dominates
            for n in range(4):
                assert fosd_compare(lower[n + 1], lower[n]).weakly_dominates
                assert fosd_compare(upper[n + 1], upper[n]).weakly_dominated

    def test_empty_input(self):
        with pytest.raises(ValueError):
            squeeze_bounds([])


# ---------------------------------------------------------------------------
# rational enumeration
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_point_masses_only(self):
        out = enumerate_rational_lotteries(UNIT, 1, 2)
        assert len(out) == 2
        assert same_distribution(out[0], delta(0.0))
        assert same_distribution(out[1], delta(1.0))

    def test_half_integer_weights(self):
        out = enumerate_rational_lotteries(UNIT, 2, 2)
        assert len(out) == 3
        assert same_distribution(out[0], delta(0.0))
        assert same_distribution(out[1], lottery(UNIT, [0.0, 1.0], [0.5, 0.5]))
        assert same_distribution(out[2], delta(1.0))

    def test_stars_and_bars_count(self):
        # compositions of 2 into 3 bins: C(4, 2) = 6
        out = enumerate_rational_lotteries(UNIT, 2, 3)
        assert len(out) == 6

    def test_each_grid_lottery_appears_once(self):
        out = enumerate_rational_lotteries(UNIT, 3, 3)
        seen = set()
        for p in out:
            key = tuple(zip(p.support, p.probs))
            assert key not in seen
            seen.add(key)
        # every lottery with denominator-3 masses on the grid is present
        grid = [0.0, 0.5, 1.0]
        count = 0
        for c0 in range(4):
            for c1 in range(4 - c0):
                c2 = 3 - c0 - c1
                count += 1
                target = lottery(UNIT, grid, [c0 / 3, c1 / 3, c2 / 3])
                assert any(same_distribution(target, p) for p in out)
        assert len(out) == count

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_rational_lotteries(UNIT, 100, 40, max_count=1000)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            enumerate_rational_lotteries(UNIT, 0, 2)
        with pytest.raises(ValueError):
            enumerate_rational_lotteries(UNIT, 1, 1)
