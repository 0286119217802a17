"""Acts, representations, certainty equivalents, and convergence behavior."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab import aa_prefs
from recovery_lab.aa_prefs import (
    AAPreference,
    Act,
    BernoulliIndex,
    CostFunction,
    Prior,
    StateSpace,
    act_dominates,
    act_value,
    aggregate,
    aggregator_distance,
    aggregator_eval,
    ce_act,
    ce_lottery,
    expected_utility,
    index_distance,
    rep_distance,
    simplex_grid,
)
from recovery_lab.errors import (
    IntervalMismatchError,
    NotStrictlyIncreasingError,
    ShapeMismatchError,
)
from recovery_lab.lotteries import UNIT, DominanceVerdict, delta, lottery
from recovery_lab.experiments.sigma import build_sigma

IDENT = BernoulliIndex.identity()
KINKED = BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.8, 1.0))
HALF_HALF = lottery(UNIT, [0.0, 1.0], [0.5, 0.5])


def random_index(rng, n_interior=2):
    knots = (0.0, *np.sort(rng.uniform(0.05, 0.95, n_interior)).tolist(), 1.0)
    vals = np.sort(rng.uniform(0.01, 0.99, n_interior))
    return BernoulliIndex(UNIT, knots, (0.0, *vals.tolist(), 1.0))


def random_lottery(rng, max_support=4):
    k = rng.integers(1, max_support + 1)
    pts = rng.choice(np.linspace(0, 1, 9), size=k, replace=False)
    w = rng.random(k)
    return lottery(UNIT, pts.tolist(), (w / w.sum()).tolist())


def random_pref(rng, n_states=2):
    index = random_index(rng)
    kind = rng.integers(0, 3)
    if kind == 0:
        w = rng.random(n_states)
        return AAPreference.eu(index, Prior(tuple(w / w.sum())))
    if kind == 1:
        priors = []
        for _ in range(rng.integers(1, 4)):
            w = rng.random(n_states)
            priors.append(Prior(tuple(w / w.sum())))
        return AAPreference.maxmin(index, priors)
    grid = simplex_grid(n_states, 8)
    costs = rng.uniform(0.0, 0.5, len(grid))
    costs[rng.integers(0, len(grid))] = 0.0
    return AAPreference.variational(index, CostFunction(tuple(grid), tuple(costs)))


def random_act(rng, n_states=2):
    return Act(tuple(random_lottery(rng) for _ in range(n_states)))


class TestTypes:
    def test_index_normalization_enforced(self):
        with pytest.raises(ValueError):
            BernoulliIndex(UNIT, (0.0, 1.0), (0.1, 1.0))
        with pytest.raises(ValueError):
            BernoulliIndex(UNIT, (0.0, 1.0), (0.0, 0.9))

    def test_index_allows_weakly_increasing(self):
        u = BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.0, 1.0))
        assert not u.is_strictly_increasing

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            Prior((0.5, 0.6))
        with pytest.raises(ValueError):
            Prior((-0.1, 1.1))

    def test_cost_grounding_shift(self):
        grid = tuple(simplex_grid(2, 2))
        c = CostFunction(grid, (0.3, 0.5, 1.0))
        assert min(c.costs) == 0.0
        assert c.costs == (0.0, 0.2, 0.7)

    def test_cost_needs_finite_value(self):
        grid = tuple(simplex_grid(2, 1))
        with pytest.raises(ValueError):
            CostFunction(grid, (math.inf, math.inf))

    def test_act_interval_consistency(self):
        from recovery_lab.lotteries import Interval

        with pytest.raises(IntervalMismatchError):
            Act((delta(0.5), delta(0.5, Interval(0, 2))))

    def test_state_space_labels(self):
        s = StateSpace(2)
        assert s.labels == ("s0", "s1")

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pref = random_pref(rng)
            back = AAPreference.from_dict(pref.to_dict())
            assert back == pref


class TestExpectedUtility:
    def test_linear_mean(self):
        assert expected_utility(IDENT, HALF_HALF) == pytest.approx(0.5, abs=1e-15)

    def test_normalization_at_bottom(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert expected_utility(random_index(rng), delta(0.0)) == 0.0

    def test_interpolated_value(self):
        # two-segment index: u(0.25) = 0.8 * (0.25 / 0.5) = 0.4
        assert expected_utility(KINKED, delta(0.25)) == pytest.approx(0.4, abs=1e-12)

    def test_interval_mismatch(self):
        from recovery_lab.lotteries import Interval

        with pytest.raises(IntervalMismatchError):
            expected_utility(IDENT, delta(1.5, Interval(0, 2)))


class TestAggregator:
    def test_zero_cost_reduces_to_min(self):
        pref = AAPreference.variational(
            IDENT, CostFunction.indicator(simplex_grid(2, 4))
        )
        assert aggregator_eval(pref, (0.2, 0.9)) == pytest.approx(0.2, abs=1e-12)

    def test_indicator_cost_is_single_prior_eu(self):
        p0 = Prior((0.3, 0.7))
        pref = AAPreference.variational(IDENT, CostFunction.indicator([p0]))
        eu = AAPreference.eu(IDENT, p0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.random(2)
            assert aggregator_eval(pref, z) == pytest.approx(
                aggregator_eval(eu, z), abs=1e-15
            )

    def test_quadratic_cost_grid_minimum(self):
        # grid step 0.25, c(pi) = (pi_1 - 0.5)^2, z = (0, 1):
        # exhaustive minimum over the 5 grid priors is 0.25
        grid = simplex_grid(2, 4)
        costs = tuple((p.weights[0] - 0.5) ** 2 for p in grid)
        pref = AAPreference.variational(IDENT, CostFunction(tuple(grid), costs))
        expected = min(p.weights[0] * 0.0 + p.weights[1] * 1.0 + c for p, c in zip(grid, costs))
        assert expected == pytest.approx(0.25, abs=1e-15)
        assert aggregator_eval(pref, (0.0, 1.0)) == pytest.approx(0.25, abs=1e-12)

    def test_shape_check(self):
        pref = AAPreference.eu(IDENT, Prior((0.5, 0.5)))
        with pytest.raises(ShapeMismatchError):
            aggregator_eval(pref, (0.1, 0.2, 0.3))

    def test_normalization_on_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            pref = random_pref(rng)
            for t in (0.0, 0.25, 0.5, 1.0):
                assert aggregator_eval(pref, (t, t)) == pytest.approx(t, abs=1e-9)


class TestActValue:
    def test_constant_act_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pref = random_pref(rng)
            p = random_lottery(rng)
            v = act_value(pref, Act.constant(p, 2))
            assert v == pytest.approx(expected_utility(pref.index, p), abs=1e-9)

    def test_eu_weighted_states(self):
        pref = AAPreference.eu(IDENT, Prior((0.3, 0.7)))
        f = Act((delta(1.0), delta(0.0)))
        assert act_value(pref, f) == pytest.approx(0.3, abs=1e-12)

    def test_maxmin_worst_case(self):
        pref = AAPreference.maxmin(IDENT, [Prior((1.0, 0.0)), Prior((0.0, 1.0))])
        assert act_value(pref, Act((delta(1.0), delta(0.0)))) == 0.0

    def test_maxmin_matches_indicator_variational(self):
        rng = np.random.default_rng(5)
        priors = [Prior((0.2, 0.8)), Prior((0.7, 0.3))]
        index = random_index(rng)
        mm = AAPreference.maxmin(index, priors)
        var = AAPreference.variational(index, CostFunction.indicator(priors))
        for _ in range(1000):
            f = random_act(rng)
            assert abs(act_value(mm, f) - act_value(var, f)) <= 1e-12

    def test_monotone_in_dominance(self):
        rng = np.random.default_rng(6)
        from recovery_lab.lotteries import lottery_join

        for _ in range(200):
            pref = random_pref(rng)
            g = random_act(rng)
            f = Act(tuple(lottery_join(p, random_lottery(rng)) for p in g.per_state))
            assert act_dominates(f, g).weakly_dominates
            assert act_value(pref, f) >= act_value(pref, g) - 1e-12


class TestCertaintyEquivalents:
    def test_identity_mean(self):
        assert ce_lottery(IDENT, HALF_HALF) == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_lottery(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = random_index(rng)
            x = float(rng.uniform(0, 1))
            assert ce_lottery(u, delta(x)) == pytest.approx(x, abs=1e-9)

    def test_concave_kinked_inverse(self):
        # u(x) = 0.5 on the first segment: x = 0.5 / 0.8 * 0.5 = 0.3125
        assert ce_lottery(KINKED, HALF_HALF) == pytest.approx(0.3125, abs=1e-9)

    def test_requires_strict_index(self):
        flat = BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.0, 1.0))
        with pytest.raises(NotStrictlyIncreasingError):
            ce_lottery(flat, HALF_HALF)

    def test_ce_act_constant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pref = random_pref(rng)
            p = random_lottery(rng)
            assert ce_act(pref, Act.constant(p, 2)) == pytest.approx(
                ce_lottery(pref.index, p), abs=1e-9
            )

    def test_ce_act_eu_example(self):
        pref = AAPreference.eu(IDENT, Prior((0.3, 0.7)))
        assert ce_act(pref, Act((delta(1.0), delta(0.0)))) == pytest.approx(0.3, abs=1e-9)

    def test_ce_act_maxmin_floor(self):
        pref = AAPreference.maxmin(IDENT, [Prior((1.0, 0.0)), Prior((0.0, 1.0))])
        assert ce_act(pref, Act((delta(1.0), delta(0.0)))) == pytest.approx(0.0, abs=1e-9)

    def test_inversion_property(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pref = random_pref(rng)
            f = random_act(rng)
            x = ce_act(pref, f)
            assert abs(pref.index(x) - act_value(pref, f)) <= 1e-9


class TestActDominance:
    def test_strict_everywhere(self):
        f = Act((delta(1.0), delta(1.0)))
        g = Act((delta(0.0), delta(0.0)))
        assert act_dominates(f, g) is DominanceVerdict.STRICTLY_DOMINATES

    def test_equal(self):
        f = Act((delta(0.5), HALF_HALF))
        assert act_dominates(f, f) is DominanceVerdict.EQUAL

    def test_conflicting_states(self):
        f = Act((delta(1.0), delta(0.0)))
        g = Act((delta(0.0), delta(1.0)))
        assert act_dominates(f, g) is DominanceVerdict.INCOMPARABLE

    def test_weak_when_one_state_ties(self):
        f = Act((delta(1.0), delta(0.5)))
        g = Act((delta(0.0), delta(0.5)))
        assert act_dominates(f, g) is DominanceVerdict.DOMINATES

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            act_dominates(Act((delta(0.5),)), Act((delta(0.5), delta(0.5))))


class TestRepDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(10)
        pref = random_pref(rng)
        grid = [random_act(rng) for _ in range(5)]
        assert rep_distance(pref, pref, grid) == (0.0, 0.0)

    def test_opposed_priors(self):
        p1 = AAPreference.eu(IDENT, Prior((1.0, 0.0)))
        p2 = AAPreference.eu(IDENT, Prior((0.0, 1.0)))
        grid = [Act((delta(1.0), delta(0.0)))]
        dv, du = rep_distance(p1, p2, grid)
        assert dv == pytest.approx(1.0, abs=1e-12)
        assert du == 0.0

    def test_index_gap_at_knot(self):
        u2 = BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.7, 1.0))
        p1 = AAPreference.eu(KINKED, Prior((1.0,)))
        p2 = AAPreference.eu(u2, Prior((1.0,)))
        _, du = rep_distance(p1, p2, [Act((delta(0.5),))])
        assert du == pytest.approx(0.1, abs=1e-12)

    def test_index_distance_exact_at_union_knots(self):
        u1 = BernoulliIndex(UNIT, (0.0, 0.25, 1.0), (0.0, 0.5, 1.0))
        u2 = BernoulliIndex(UNIT, (0.0, 0.75, 1.0), (0.0, 0.5, 1.0))
        # sup of the piecewise-linear difference over a fine grid agrees
        fine = np.linspace(0, 1, 10001)
        brute = float(np.max(np.abs(u1(fine) - u2(fine))))
        assert index_distance(u1, u2) == pytest.approx(brute, abs=1e-4)
        assert index_distance(u1, u2) >= brute - 1e-12


def geometric_sequence_prefs(k):
    """A target preference and its level-k approximant (halving parameter gaps)."""
    target_prior = Prior((0.4, 0.6))
    target_index = BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.6, 1.0))
    step = 2.0 ** (-k)
    prior_k = Prior((0.4 + 0.2 * step, 0.6 - 0.2 * step))
    index_k = BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.6 + 0.25 * step, 1.0))
    return (
        AAPreference.eu(target_index, target_prior),
        AAPreference.eu(index_k, prior_k),
    )


class TestConvergenceBehavior:
    def test_parametric_sequence_converges(self):
        rng = np.random.default_rng(11)
        grid = [random_act(rng) for _ in range(30)]
        target, _ = geometric_sequence_prefs(0)
        last = None
        for k in range(13):
            _, pref_k = geometric_sequence_prefs(k)
            dv, du = rep_distance(pref_k, target, grid)
            dist = max(dv, du)
            if last is not None:
                assert dist < last
            last = dist
        assert last <= 1e-3

    def test_ce_continuity_along_sequence(self):
        target, _ = geometric_sequence_prefs(0)
        p_target = lottery(UNIT, [0.0, 1.0], [0.3, 0.7])
        ce_target = ce_act(target, Act.constant(p_target, 2))
        last = None
        for k in range(13):
            _, pref_k = geometric_sequence_prefs(k)
            pk = lottery(UNIT, [0.0, 1.0], [0.3 + 0.2 * 2.0 ** (-k), 0.7 - 0.2 * 2.0 ** (-k)])
            gap = abs(ce_act(pref_k, Act.constant(pk, 2)) - ce_target)
            if last is not None:
                assert gap < last
            last = gap
        assert last <= 1e-3

    def test_aggregator_distance_on_grid(self):
        p1 = AAPreference.maxmin(IDENT, [Prior((0.2, 0.8)), Prior((0.8, 0.2))])
        p2 = AAPreference.eu(IDENT, Prior((0.5, 0.5)))
        # direct recomputation over the default z lattice
        axis = np.linspace(0, 1, 9)
        worst = 0.0
        for z1 in axis:
            for z2 in axis:
                h1 = min(0.2 * z1 + 0.8 * z2, 0.8 * z1 + 0.2 * z2)
                h2 = 0.5 * z1 + 0.5 * z2
                worst = max(worst, abs(h1 - h2))
        assert aggregator_distance(p1, p2) == pytest.approx(worst, abs=1e-12)


# ---------------------------------------------------------------------------
# the act-value kernel against the one-act-at-a-time loops it replaced
# ---------------------------------------------------------------------------


def loop_expected_utility(u, p):
    return float(np.dot(p.probs_array, u(p.support_array)))


def loop_aggregator_eval(pref, z):
    z = np.asarray(z, dtype=float)
    if pref.kind == "eu":
        return float(np.dot(pref.prior.as_array, z))
    if pref.kind == "maxmin":
        return float(min(np.dot(p.as_array, z) for p in pref.priors))
    finite = [(p.as_array, c) for p, c in zip(pref.cost.priors, pref.cost.costs) if math.isfinite(c)]
    matrix = np.stack([p for p, _ in finite])
    return float(np.min(matrix @ z + np.array([c for _, c in finite])))


def loop_act_value(pref, f):
    z = np.array([loop_expected_utility(pref.index, p) for p in f.per_state])
    return loop_aggregator_eval(pref, z)


def loop_rep_distance(pref1, pref2, grid):
    dv = max(abs(loop_act_value(pref1, f) - loop_act_value(pref2, f)) for f in grid)
    return dv, index_distance(pref1.index, pref2.index)


def loop_aggregator_distance(pref1, pref2, z_steps):
    axis = np.linspace(0.0, 1.0, z_steps + 1)
    grids = np.meshgrid(*([axis] * pref1.states.n_states), indexing="ij")
    worst = 0.0
    for z in np.stack([g.ravel() for g in grids], axis=1):
        worst = max(worst, abs(loop_aggregator_eval(pref1, z) - loop_aggregator_eval(pref2, z)))
    return worst


KINDS = ["eu", "maxmin", "variational"]


def kernel_pref(rng, kind, n_states, inf_costs=False):
    """A random preference of one kind; a variational cost grid may exclude
    priors with infinite cost."""
    index = random_index(rng, int(rng.integers(0, 4)))

    def prior():
        w = rng.random(n_states) * (rng.random(n_states) > 0.2) + 1e-3
        return Prior(tuple(w / w.sum()))

    if kind == "eu":
        return AAPreference.eu(index, prior())
    if kind == "maxmin":
        return AAPreference.maxmin(index, [prior() for _ in range(rng.integers(1, 5))])
    grid = simplex_grid(n_states, int(rng.integers(1, 4)))
    costs = rng.uniform(0.0, 0.5, len(grid))
    if inf_costs:
        costs[rng.random(len(grid)) < 0.5] = math.inf
        costs[rng.integers(0, len(grid))] = 0.25
    return AAPreference.variational(index, CostFunction(tuple(grid), tuple(costs)))


class TestKernelMatchesTheLoops:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4),
           kind=st.sampled_from(KINDS), inf_costs=st.booleans(), rows=st.integers(1, 40))
    def test_aggregate_rows_equal_the_scalar_aggregator(self, seed, n_states, kind, inf_costs, rows):
        rng = np.random.default_rng(seed)
        pref = kernel_pref(rng, kind, n_states, inf_costs)
        z = rng.uniform(-1.0, 2.0, (2, rows, n_states))
        want = np.array([[loop_aggregator_eval(pref, row) for row in block] for block in z])
        assert np.array_equal(aggregate(pref, z), want)
        assert np.array_equal(aggregate(pref, z[1]), want[1])  # a row's value ignores its batch
        assert np.array_equal([aggregator_eval(pref, row) for row in z[0]], want[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 3),
           kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)), acts=st.integers(1, 30))
    def test_rep_distance_equals_the_per_act_loop(self, seed, n_states, kinds, acts):
        rng = np.random.default_rng(seed)
        p1, p2 = (kernel_pref(rng, kind, n_states, True) for kind in kinds)
        # acts share lottery objects, and equal lotteries also come as distinct objects
        lots = [random_lottery(rng) for _ in range(5)]
        lots += [lottery(UNIT, list(p.support), list(p.probs)) for p in lots[:2]]
        grid = [Act(tuple(lots[i] for i in rng.integers(0, len(lots), n_states))) for _ in range(acts)]
        assert rep_distance(p1, p2, grid) == loop_rep_distance(p1, p2, grid)
        assert [act_value(p1, f) for f in grid] == [loop_act_value(p1, f) for f in grid]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4),
           kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)), z_steps=st.integers(1, 5))
    def test_aggregator_distance_equals_the_per_point_loop(self, seed, n_states, kinds, z_steps):
        rng = np.random.default_rng(seed)
        p1, p2 = (kernel_pref(rng, kind, n_states, True) for kind in kinds)
        assert aggregator_distance(p1, p2, z_steps) == loop_aggregator_distance(p1, p2, z_steps)

    def test_rep_distance_tabulates_one_row_per_preference(self):
        grid = list(build_sigma(2, UNIT, 4, 4, k=1).universe)
        assert len(grid) == 1225
        rng = np.random.default_rng(12)
        p1, p2 = kernel_pref(rng, "maxmin", 2), kernel_pref(rng, "variational", 2)
        with mock.patch.object(aa_prefs, "eu_table", wraps=aa_prefs.eu_table) as table:
            got = rep_distance(p1, p2, grid)
        assert [len(c.args[0]) for c in table.call_args_list] == [2]  # not one per act
        assert len(table.call_args_list[0].args[1]) == 35  # the distinct lotteries
        assert got == loop_rep_distance(p1, p2, grid)
