"""Finite experiments, rationalization, and the sweep runners."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab import estimation
from recovery_lab.aa_prefs import (
    AAPreference,
    BernoulliIndex,
    CostFunction,
    Prior,
    expected_utility,
    index_distance,
    simplex_grid,
)
from recovery_lab.errors import EnumerationCapError, IntervalMismatchError, ShapeMismatchError
from recovery_lab.experiments import (
    ChoiceFunctionData,
    build_sigma,
    eu_grid,
    generated_choices,
    grid_from_config,
    run_bound,
    run_ce_continuity,
    run_consistency,
    run_dense_uniqueness_check,
    run_nonidentification_demo,
    run_recovery,
    run_theorem2_demo,
    strongly_rationalizes,
    universe_values,
    weakly_rationalizes,
)
from recovery_lab.experiments import sigma as sigma_module
from recovery_lab.experiments import sweeps as sweeps_module
from recovery_lab.experiments.prefgrids import PrefGrid, index_value_grid
from recovery_lab.experiments.sigma import VALUE_TIE_TOL, diagonal_pairs
from recovery_lab.lotteries import UNIT, Interval, delta, fosd_compare
from recovery_lab.aa_prefs import act_value
from test_aa_prefs import kernel_pref, loop_act_value
from test_acceptance import CLI_CONFIGS, RECOVERY_CFGS

IDENT = BernoulliIndex.identity()


def small_sigma(k=1, states=1, den=1, grid=2):
    return build_sigma(states, UNIT, den, grid, k=k)


def diagonal_pair_iter(m: int):
    """Index pairs i < j of range(m) in (i + j, i) order, lazily: the
    enumeration ``diagonal_pairs`` computes in closed form."""
    for s in range(1, 2 * m - 2):
        for i in range(max(0, s - m + 1), (s - 1) // 2 + 1):
            yield i, s - i


class TestSigma:
    def test_single_state_minimal_universe(self):
        sig = small_sigma()
        assert sig.universe_size == 2
        lots = [a.per_state[0] for a in sig.universe]
        assert fosd_compare(lots[0], delta(0.0)).name == "EQUAL"
        assert fosd_compare(lots[1], delta(1.0)).name == "EQUAL"
        assert sig.pairs.tolist() == [[0, 1]]

    def test_pair_count_choose_two(self):
        # universe of 6 lotteries from denominator 2 on a 3-point grid
        sig = build_sigma(1, UNIT, 2, 3, k=15)
        assert sig.universe_size == 6
        assert len(sig.pairs) == 15

    def test_k_exceeding_pairs_raises(self):
        with pytest.raises(EnumerationCapError):
            build_sigma(1, UNIT, 1, 2, k=2)

    def test_diagonal_order_every_pair_once(self):
        pairs = [tuple(p) for p in diagonal_pairs(6, 15).tolist()]
        assert len(pairs) == 15
        assert len(set(pairs)) == 15
        sums = [i + j for i, j in pairs]
        assert sums == sorted(sums)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(2, 80))
    def test_closed_form_pairs_are_the_enumerations_prefix(self, data, m):
        k = data.draw(st.integers(0, m * (m - 1) // 2))
        got = diagonal_pairs(m, k)
        assert got.shape == (k, 2)
        assert [tuple(p) for p in got.tolist()] == list(diagonal_pair_iter(m))[:k]

    @pytest.mark.parametrize("states, den, gc, k", [(1, 1, 2, 1), (2, 2, 3, 40), (3, 1, 2, 28)])
    def test_experiment_arrays_are_read_only_with_the_documented_shapes(self, states, den, gc, k):
        for perm in (None, np.arange(build_sigma(states, UNIT, den, gc, k=1).universe_size)[::-1]):
            sig = build_sigma(states, UNIT, den, gc, k=k, permutation=perm)
            assert sig.act_indices.shape == (sig.universe_size, states)
            assert sig.pairs.shape == (k, 2)
            for arr in (sig.act_indices, sig.pairs):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 1
            # product order of the base lotteries, then the permutation
            order = np.ndindex(*(len(sig.base_lotteries),) * states)
            plain = np.array(list(order)).reshape(-1, states)
            assert np.array_equal(sig.act_indices, plain if perm is None else plain[perm])

    @pytest.mark.parametrize("perm", [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 4],
                                      [5, 5, 3, 2, 1, 0], [1, 2, 3, 4, 5, 6]])
    def test_a_permutation_of_another_universe_is_refused(self, perm):
        # the universe has 6 acts: short, too long, a duplicate, out of range
        with pytest.raises(ValueError, match="permutation"):
            build_sigma(1, UNIT, 2, 3, k=1, permutation=np.array(perm))

    def test_countable_order_extremes(self):
        # the extreme point masses bound every universe element statewise
        sig = build_sigma(2, UNIT, 2, 3, k=10)
        bottom = next(
            a for a in sig.universe
            if all(fosd_compare(p, delta(0.0)).name == "EQUAL" for p in a.per_state)
        )
        top = next(
            a for a in sig.universe
            if all(fosd_compare(p, delta(1.0)).name == "EQUAL" for p in a.per_state)
        )
        from recovery_lab.aa_prefs import act_dominates

        for a in sig.universe:
            assert act_dominates(top, a).weakly_dominates
            assert act_dominates(bottom, a).weakly_dominated

    def test_permutation_changes_presentation_only(self):
        rng = np.random.default_rng(0)
        sig = build_sigma(1, UNIT, 2, 3, k=15)
        perm = rng.permutation(sig.universe_size)
        sig_p = build_sigma(1, UNIT, 2, 3, k=15, permutation=perm)
        base = {frozenset((str(a), str(b))) for a, b in
                ((sig.universe[i], sig.universe[j]) for i, j in sig.pairs)}
        permuted = {frozenset((str(a), str(b))) for a, b in
                    ((sig_p.universe[i], sig_p.universe[j]) for i, j in sig_p.pairs)}
        assert base == permuted  # same unordered pairs, different order

    def test_universe_values_fast_path_matches_generic(self):
        sig = build_sigma(2, UNIT, 2, 2, k=10)
        prefs = eu_grid(2, UNIT, 4, [0.5], 4)[:10]
        fast = universe_values(prefs, sig)
        slow = np.array([[act_value(p, a) for a in sig.universe] for p in prefs])
        assert np.array_equal(fast, slow)


def reference_universe_values(prefs, sig):
    """Values through a per-preference table of scalar expected utilities,
    the prior-weighted states summed in state order."""
    table = np.array([[expected_utility(p.index, lot) for lot in sig.base_lotteries] for p in prefs])
    priors = np.stack([p.cost.priors[0].as_array for p in prefs])
    statewise = table[:, sig.act_indices]  # (P, m, S)
    out = statewise[:, :, 0] * priors[:, None, 0]
    for s in range(1, priors.shape[1]):
        out = out + statewise[:, :, s] * priors[:, None, s]
    return out


class TestEuTable:
    TRUNCATIONS = [(4, 4), (2, 3), (6, 5), (3, 7), (5, 2), (1, 2)]
    SHIFTED = Interval(-1.0, 3.0)

    @pytest.mark.parametrize("den, gc", TRUNCATIONS)
    @pytest.mark.parametrize("interval", [UNIT, SHIFTED])
    @pytest.mark.parametrize("count", [1, 2, 165])
    def test_one_state_values_are_scalar_expected_utility(self, den, gc, interval, count):
        # with one state an act's value is its lottery's expected utility, bit
        # for bit; one index, two, and all C(11, 3) = 165 of the grid
        width = interval.b - interval.a
        knots = [interval.a + width * x for x in (0.2, 0.45, 0.8)]
        indices = index_value_grid(interval, knots, 12)[:count]
        prefs = [AAPreference.eu(u, Prior((1.0,))) for u in indices]
        sig = build_sigma(1, interval, den, gc, k=1)
        scalar = [[expected_utility(u, a.per_state[0]) for a in sig.universe] for u in indices]
        assert np.array_equal(universe_values(prefs, sig), np.array(scalar))

    @pytest.mark.parametrize("den, gc", TRUNCATIONS[:4])
    def test_two_states_match_the_scalar_table(self, den, gc):
        # several priors share each index: the deduplicated table must map back exactly
        prefs = eu_grid(2, UNIT, 3, [1 / 3, 2 / 3], 6)
        sig = build_sigma(2, UNIT, den, gc, k=1)
        assert np.array_equal(universe_values(prefs, sig), reference_universe_values(prefs, sig))

    @pytest.mark.parametrize("states", [1, 2, 3, 4])
    @settings(max_examples=25, deadline=None)
    @given(
        level=st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]),
        prior_steps=st.integers(1, 6),
        value_steps=st.integers(3, 9),
        picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
        gather_cells=st.sampled_from([1, 7, 64, 1 << 19]),
    )
    def test_values_match_the_reference_at_one_to_four_states(
        self, states, level, prior_steps, value_steps, picks, gather_cells
    ):
        # the statewise gather runs in blocks of acts; every block size, and a
        # batch of one preference as well as many, gives the reference's values
        grid = eu_grid(states, UNIT, prior_steps, [0.3, 0.7], value_steps)
        prefs = [grid[i % len(grid)] for i in picks]
        sig = build_sigma(states, UNIT, *level, k=1)
        want = reference_universe_values(prefs, sig)
        with mock.patch.object(sigma_module, "_GATHER_CELLS", gather_cells):
            assert np.array_equal(universe_values(prefs, sig), want)
            for p in prefs:
                assert np.array_equal(universe_values([p], sig), reference_universe_values([p], sig))

    def test_index_on_another_interval_is_rejected(self):
        pref = AAPreference.eu(BernoulliIndex.identity(self.SHIFTED), Prior((1.0,)))
        with pytest.raises(IntervalMismatchError):
            universe_values([pref], build_sigma(1, UNIT, 2, 3, k=1))

    @pytest.mark.parametrize("states", [1, 2, 3, 4])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), picks=st.lists(st.integers(0, 10_000), min_size=2, max_size=8),
           other=st.sampled_from(["maxmin", "variational"]))
    def test_an_eu_row_is_the_same_alone_in_a_batch_and_beside_another_kind(
        self, states, seed, picks, other
    ):
        grid = eu_grid(states, UNIT, 3, [0.3, 0.7], 6)
        prefs = [grid[i % len(grid)] for i in picks]
        sig = build_sigma(states, UNIT, 2, 3, k=1)
        batch = universe_values(prefs, sig)
        for p, row in zip(prefs, batch):
            mixed = [kernel_pref(np.random.default_rng(seed), other, states, True), p]
            assert np.array_equal(universe_values([p], sig)[0], row)
            assert np.array_equal(universe_values(mixed, sig)[1], row)

    @pytest.mark.parametrize("states", [1, 2, 3, 4])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["eu", "maxmin", "variational"]),
           level=st.sampled_from([(1, 2), (2, 2), (1, 3)]))
    def test_other_kinds_rows_are_each_acts_value(self, states, seed, kind, level):
        # every row, the grid member's included, is each act's act_value
        rng = np.random.default_rng(seed)
        prefs = [kernel_pref(rng, kind, states, True) for _ in range(3)]
        prefs.insert(1, eu_grid(states, UNIT, 2, [0.5], 4)[0])
        sig = build_sigma(states, UNIT, *level, k=1)
        values = universe_values(prefs, sig)
        for r in range(4):
            want = [loop_act_value(prefs[r], f) for f in sig.universe]
            assert np.array_equal(values[r], want)
            assert np.array_equal(values[r], [act_value(prefs[r], f) for f in sig.universe])

    @pytest.mark.parametrize("states", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["eu", "maxmin", "variational"]), max_size=4),
           level=st.sampled_from([(1, 2), (2, 2), (1, 3)]),
           picks=st.lists(st.integers(0, 10_000), max_size=30))
    def test_values_at_chosen_acts_are_the_full_tables_columns(self, states, seed, kinds, level, picks):
        # acts may be empty, repeated or unsorted; grid members share index
        # objects; a row valued alone is its row in the batch
        rng = np.random.default_rng(seed)
        prefs = [kernel_pref(rng, kind, states, True) for kind in kinds]
        prefs += eu_grid(states, UNIT, 2, [0.5], 4)
        sig = build_sigma(states, UNIT, *level, k=1)
        acts = [i % sig.universe_size for i in picks]
        full, got = universe_values(prefs, sig), universe_values(prefs, sig, acts)
        assert got.shape == (len(prefs), len(acts)) and np.array_equal(got, full[:, acts])
        for p, row in zip(prefs, full):
            assert np.array_equal(universe_values([p], sig)[0], row)
            assert np.array_equal(universe_values([p], sig, acts)[0], row[acts])

    def test_no_preferences_give_an_empty_table(self):
        sig = build_sigma(2, UNIT, 1, 2, k=1)
        assert universe_values([], sig).shape == (0, sig.universe_size)
        assert universe_values([], sig, []).shape == (0, 0)

    @pytest.mark.parametrize("kind", ["eu", "maxmin", "variational", "grid"])
    def test_preferences_over_another_state_count_are_refused(self, kind):
        one_state = build_sigma(1, UNIT, 1, 2, k=1)
        if kind == "grid":
            prefs = eu_grid(2, UNIT, 2, [0.5], 2)
        else:
            prefs = [kernel_pref(np.random.default_rng(0), kind, 2, True)]
        with pytest.raises(ShapeMismatchError):
            universe_values(prefs, one_state)
        with pytest.raises(ShapeMismatchError):  # beside a preference that fits
            universe_values([AAPreference.eu(IDENT, Prior((1.0,))), prefs[0]], one_state)


class TestPrefGrid:
    @settings(max_examples=25, deadline=None)
    @given(states=st.integers(1, 4), prior_steps=st.integers(1, 4), value_steps=st.integers(3, 7),
           knots=st.sampled_from([[0.5], [0.3, 0.7], [0.2, 0.45, 0.8]]),
           level=st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]),
           picks=st.lists(st.integers(0, 10_000), max_size=20))
    def test_a_grid_values_as_its_member_list_and_the_reference(
        self, states, prior_steps, value_steps, knots, level, picks
    ):
        grid = eu_grid(states, UNIT, prior_steps, knots, value_steps)
        sig = build_sigma(states, UNIT, *level, k=1)
        acts = [i % sig.universe_size for i in picks]
        want = reference_universe_values(list(grid), sig) if len(grid) else np.empty((0, sig.universe_size))
        for got in (universe_values(grid, sig), universe_values(list(grid), sig)):
            assert np.array_equal(got, want)
        for got in (universe_values(grid, sig, acts), universe_values(list(grid), sig, acts)):
            assert np.array_equal(got, want[:, acts])
        rows = [i % len(grid) for i in picks] if len(grid) else []
        assert np.array_equal(universe_values(grid[np.array(rows, int)], sig), want[rows])

    @pytest.mark.parametrize("states, prior_steps, knots, value_steps",
                             [(1, 1, [0.5], 6), (2, 3, [1 / 3, 2 / 3], 6), (3, 2, [0.3, 0.7], 5)])
    def test_members_are_the_preferences_of_the_list_it_replaced(
        self, states, prior_steps, knots, value_steps
    ):
        grid = eu_grid(states, UNIT, prior_steps, knots, value_steps)
        old = [AAPreference.eu(u, p) for p in simplex_grid(states, prior_steps)
               for u in index_value_grid(UNIT, knots, value_steps)]
        assert len(grid) == len(old) and list(grid) == old
        assert [grid[r] for r in (0, -1, len(old) // 2)] == [old[0], old[-1], old[len(old) // 2]]
        assert isinstance(grid[2:5], PrefGrid) and list(grid[2:5]) == old[2:5]
        assert list(grid[np.array([4, 0, 4])]) == [old[4], old[0], old[4]]
        with pytest.raises(IndexError):
            grid[len(old)]
        assert not grid.index_of.flags.writeable and not grid.priors.flags.writeable
        assert not grid.costs.flags.writeable

    @pytest.mark.parametrize("states", [1, 2, 3])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["eu", "maxmin", "variational"]), min_size=1, max_size=5))
    def test_a_packed_list_keeps_each_members_values(self, states, seed, kinds):
        # members of every kind share one grid: fewer priors are padded by
        # slots at cost inf, and a member rebuilt from the arrays values alike
        rng = np.random.default_rng(seed)
        prefs = [kernel_pref(rng, kind, states, True) for kind in kinds]
        grid = PrefGrid.of(prefs, states)
        width = max(len(p.prior_set[1]) for p in prefs)
        assert grid.priors.shape == (len(prefs), width, states) and grid.costs.shape == (len(prefs), width)
        assert [np.isinf(c).sum() for c in grid.costs] == [
            width - len(p.prior_set[1]) + np.isinf(p.prior_set[1]).sum() for p in prefs]
        assert PrefGrid.of(grid, states) is grid
        sig = build_sigma(states, UNIT, 1, 3, k=1)
        want = np.array([[act_value(p, f) for f in sig.universe] for p in prefs])
        for got in (universe_values(prefs, sig), universe_values(grid, sig), universe_values(list(grid), sig)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("states", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["eu", "maxmin", "variational"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_a_packed_member_is_the_preference_it_packed(self, states, kind, seed):
        # with every cost finite the member is equal; a max-min member once came
        # back as a variational preference
        rng = np.random.default_rng(seed)
        pref = kernel_pref(rng, kind, states)
        assert PrefGrid.of([pref], states)[0] == pref

    @pytest.mark.parametrize("states", [1, 2, 3])
    def test_a_packed_member_drops_the_priors_at_cost_inf(self, states):
        grid = tuple(simplex_grid(states, 3))
        costs = tuple(math.inf if i % 2 else 0.1 * i for i in range(len(grid)))
        pref = AAPreference.variational(IDENT, CostFunction(grid, costs))
        back = PrefGrid.of([pref], states)[0]
        assert back.cost.priors == grid[::2] and back.cost.costs == costs[::2]
        sig = build_sigma(states, UNIT, 1, 3, k=1)
        assert [act_value(back, f) for f in sig.universe] == [act_value(pref, f) for f in sig.universe]

    def test_the_recovery_benchmark_grid_builds_each_index_once_and_no_member(self, monkeypatch):
        made = {BernoulliIndex: 0, AAPreference: 0}
        for cls in made:
            def counted(self, *args, cls=cls, real=cls.__init__, **kwargs):
                made[cls] += 1
                real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        grid = grid_from_config(TestRecoveryWork.CFG["candidates"], UNIT)
        assert len(grid) == 2783 and len(grid.indices) == 253
        assert made == {BernoulliIndex: 253, AAPreference: 0}


class TestGeneratedChoices:
    def test_dominating_act_chosen(self):
        sig = small_sigma()
        pref = AAPreference.eu(IDENT, Prior((1.0,)))
        data = generated_choices(pref, sig)
        assert data.codes.tolist() == [2]  # the second act, the sure 1, wins

    def test_equal_values_keep_both(self):
        sig = build_sigma(2, UNIT, 1, 2, k=6)
        pref = AAPreference.eu(IDENT, Prior((0.5, 0.5)))
        data = generated_choices(pref, sig)
        values = universe_values([pref], sig)[0]
        for (i, j), code in zip(sig.pairs, data.codes):
            if abs(values[i] - values[j]) <= VALUE_TIE_TOL:
                assert code == 0

    def test_state_prior_drives_choice(self):
        sig = build_sigma(2, UNIT, 1, 2, k=6)
        pref = AAPreference.eu(IDENT, Prior((1.0, 0.0)))
        data = generated_choices(pref, sig)
        # find the pair {(d1, d0), (d0, d1)}; the first-state-win act must win
        for (i, j), code in zip(sig.pairs, data.codes):
            vi = act_value(pref, sig.universe[i])
            vj = act_value(pref, sig.universe[j])
            if abs(vi - vj) > VALUE_TIE_TOL:
                assert code == (1 if vi > vj else 2)

    def test_choice_data_refuses_a_wrong_length_or_code(self):
        sig = build_sigma(2, UNIT, 1, 2, k=6)
        ChoiceFunctionData(sig, np.array([0, 1, 2, 0, 1, 2]))
        for codes in ([0, 1, 2, 0, 1], [0, 1, 2, 0, 1, 2, 0], [[0, 1, 2, 0, 1, 2]]):
            with pytest.raises(ShapeMismatchError):
                ChoiceFunctionData(sig, np.array(codes))
        for codes in ([0, 1, 2, 0, 1, 3], [0, 1, 2, 0, 1, -1], [0, 1, 2, 0, 1, 0.5]):
            with pytest.raises(ValueError):
                ChoiceFunctionData(sig, np.array(codes))


class TestRationalization:
    def setup_method(self):
        self.sig = build_sigma(2, UNIT, 2, 2, k=20)
        self.truth = AAPreference.eu(IDENT, Prior((0.3, 0.7)))
        self.data = generated_choices(self.truth, self.sig)

    def test_generator_strongly_rationalizes(self):
        assert strongly_rationalizes(self.truth, self.data)
        assert weakly_rationalizes(self.truth, self.data)

    def test_reversing_candidate_fails_weakly(self):
        flipped = AAPreference.eu(IDENT, Prior((0.7, 0.3)))
        assert not weakly_rationalizes(flipped, self.data)
        assert not strongly_rationalizes(flipped, self.data)

    def test_indifferent_candidate_weak_but_not_strong(self):
        # concave truth strictly ranks the equal-mean pair; the risk-neutral
        # candidate is indifferent there, so containment holds but not equality
        sig = build_sigma(1, UNIT, 2, 3, k=15)
        concave = BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.8, 1.0))
        truth = AAPreference.eu(concave, Prior((1.0,)))
        cand = AAPreference.eu(IDENT, Prior((1.0,)))
        data = generated_choices(truth, sig)
        assert np.any(data.codes != 0)  # some pair has one chosen act
        assert weakly_rationalizes(cand, data)
        assert not strongly_rationalizes(cand, data)

    # the one pair (d0, d1) vs (d1, d0): a prior (p, 1 - p) values them 1 - p and p
    CODE_OF_PRIOR = {(0.5, 0.5): 0, (0.0, 1.0): 1, (1.0, 0.0): 2}

    @pytest.mark.parametrize("observed", [0, 1, 2])
    @pytest.mark.parametrize("prior", sorted(CODE_OF_PRIOR))
    def test_codes_rationalize_as_the_chosen_sets(self, observed, prior):
        sig = build_sigma(2, UNIT, 1, 2, k=1, permutation=np.array([1, 2, 0, 3]))
        cand = AAPreference.eu(IDENT, Prior(prior))
        assert generated_choices(cand, sig).codes.tolist() == [self.CODE_OF_PRIOR[prior]]
        (i, j), = sig.pairs.tolist()
        chosen_set = {0: frozenset((i, j)), 1: frozenset((i,)), 2: frozenset((j,))}
        obs, can = chosen_set[observed], chosen_set[self.CODE_OF_PRIOR[prior]]
        data = ChoiceFunctionData(sig, np.array([observed]))
        assert weakly_rationalizes(cand, data) == (obs <= can)
        assert strongly_rationalizes(cand, data) == (obs == can)


class TestRecoverySweep:
    def make_cfg(self, **over):
        cfg = {
            "version": 1,
            "seed": 0,
            "states": 1,
            "truncation": {"denominator_bound": 2, "grid_count": 3},
            "k_grid": [2, 5, 10, 15],
            "replicates": 2,
            "candidates": {
                "eu_grid": {"states": 1, "knot_positions": [0.5], "value_steps": 12}
            },
            "true_index": 5,
            "disagreement_m": 1000,
        }
        cfg.update(over)
        return cfg

    def test_survivor_nesting_and_sanity(self):
        out = run_recovery(self.make_cfg())
        rows = out.csv_rows
        by_rep = {}
        for k, rep, surv, *_ in rows:
            by_rep.setdefault(rep, []).append((k, surv))
        for series in by_rep.values():
            counts = [s for _, s in sorted(series)]
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert all(s >= 1 for s in counts)  # truth always survives

    def test_max_disagreement_weakly_decreasing(self):
        out = run_recovery(self.make_cfg())
        by_rep = {}
        for k, rep, surv, d, dv, du in out.csv_rows:
            by_rep.setdefault(rep, []).append((k, d))
        for series in by_rep.values():
            vals = [d for _, d in sorted(series)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_cells_sorted_and_quantiles_monotone(self):
        out = run_recovery(self.make_cfg())
        ks = [c["cell"] for c in out.report.cells]
        assert ks == sorted(ks)
        for c in out.report.cells:
            if c.get("count"):
                assert c["q25"] <= c["q50"] <= c["q75"]

    def test_k_zero_cell_is_vacuous(self):
        from recovery_lab.experiments import grid_from_config
        from recovery_lab.lotteries import UNIT as unit

        out = run_recovery(self.make_cfg(k_grid=[0, 5]))
        n_candidates = len(grid_from_config(self.make_cfg()["candidates"], unit))
        for k, rep, surv, d, dv, du in out.csv_rows:
            if k == 0:
                assert surv == n_candidates  # everyone survives the empty experiment


def reference_recovery_rows(cfg):
    """CSV rows of the recovery sweep from full (candidates x pairs) code
    matrices and per-candidate statistics over the whole grid."""
    states, trunc = cfg["states"], cfg["truncation"]
    den, gc = trunc["denominator_bound"], trunc["grid_count"]
    k_grid = sorted(cfg["k_grid"])
    seed, dis_m, true_index = cfg["seed"], cfg["disagreement_m"], cfg["true_index"]
    candidates = grid_from_config(cfg["candidates"], UNIT)
    true = candidates[true_index]
    m_universe = build_sigma(states, UNIT, den, gc, k=1).universe_size
    rows = []
    for rep in range(cfg["replicates"]):
        perm = np.random.default_rng([seed, rep]).permutation(m_universe)
        sig = build_sigma(states, UNIT, den, gc, k=max(k_grid[-1], 1), permutation=perm)
        values = universe_values(candidates, sig)
        v_true = values[true_index]
        pi, pj = sig.pairs.T

        def codes(mat):
            d = mat[..., pi] - mat[..., pj]
            return np.where(np.abs(d) <= VALUE_TIE_TOL, 0, np.where(d > 0, 1, 2))

        data_codes = codes(v_true)
        cand_codes = codes(values)
        rng2 = np.random.default_rng([seed, rep, 1])
        ii = rng2.integers(0, m_universe, dis_m)
        jj = rng2.integers(0, m_universe, dis_m)
        d_true = v_true[ii] - v_true[jj]
        d_all = values[:, ii] - values[:, jj]
        disag = np.mean(((d_all > 0) & (d_true < 0)) | ((d_all < 0) & (d_true > 0)), axis=1)
        dv_all = np.max(np.abs(values - v_true), axis=1)
        du_all = np.array([index_distance(c.index, true.index) for c in candidates])
        alive = np.ones(len(candidates), dtype=bool)
        prev = 0
        for k in k_grid:
            alive &= np.all(cand_codes[:, prev:k] == data_codes[prev:k], axis=1)
            prev = k
            n_alive = int(alive.sum())
            if n_alive == 0:
                rows.append([k, rep, 0, "", "", ""])
                continue
            rows.append(
                [k, rep, n_alive, float(disag[alive].max()), float(dv_all[alive].max()),
                 float(du_all[alive].max())]
            )
    return rows


# states -> (denominator_bound, grid_count) levels with 6 to 4,950 pairs
LEVELS = {1: [(2, 3), (3, 3), (4, 4)], 2: [(1, 2), (2, 2), (2, 3), (3, 3)], 3: [(1, 2), (2, 2)]}


@st.composite
def recovery_configs(draw):
    states = draw(st.integers(1, 3))
    den, gc = draw(st.sampled_from(LEVELS[states]))
    m = build_sigma(states, UNIT, den, gc, k=1).universe_size
    last = m * (m - 1) // 2
    knots = draw(st.sampled_from([[0.5], [1 / 3, 2 / 3]]))
    grid = {
        "states": states,
        "prior_steps": draw(st.integers(1, 4)),
        "knot_positions": knots,
        "value_steps": draw(st.integers(len(knots) + 1, 8)),
    }
    n_candidates = len(grid_from_config({"eu_grid": grid}, UNIT))
    k_grid = draw(st.lists(st.integers(0, last), min_size=1, max_size=4, unique=True))
    # a first cell of 0 or 1 keeps all or most candidates alive past it; k_grid refuses a repeat
    extra = draw(st.sampled_from([[], [0], [last], [0, last], [1], [1, last]]))
    k_grid += [k for k in extra if k not in k_grid]
    return {
        "version": 1,
        "seed": draw(st.integers(0, 2**32)),
        "states": states,
        "truncation": {"denominator_bound": den, "grid_count": gc},
        "k_grid": k_grid,
        "replicates": draw(st.integers(1, 3)),
        "candidates": {"eu_grid": grid},
        "true_index": draw(st.integers(0, n_candidates - 1)),
        "disagreement_m": draw(st.integers(1, 300)),
    }


class TestRecoveryMatchesFullMatrix:
    @settings(max_examples=40, deadline=None)
    @given(cfg=recovery_configs())
    def test_rows_equal_the_reference(self, cfg):
        expected = reference_recovery_rows(cfg)
        assert run_recovery(cfg, threads=1).csv_rows == expected
        assert run_recovery(cfg, threads=3).csv_rows == expected

    @pytest.mark.parametrize("label", sorted(RECOVERY_CFGS))
    def test_acceptance_configs(self, label):
        cfg = RECOVERY_CFGS[label]
        assert run_recovery(cfg, threads=3).csv_rows == reference_recovery_rows(cfg)


class TestRecoveryWork:
    # perfbench's recovery config: 2,783 candidates over 1,225 acts
    CFG = {
        "version": 1,
        "states": 2,
        "truncation": {"denominator_bound": 4, "grid_count": 4},
        "k_grid": [50, 200, 800, 2000],
        "replicates": 1,
        "candidates": {
            "eu_grid": {"states": 2, "prior_steps": 10, "knot_positions": [1 / 3, 2 / 3], "value_steps": 24}
        },
        "true_index": 1000,
        "disagreement_m": 4000,
    }

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_no_full_value_table_is_computed(self, seed):
        # every candidate is valued on the first cell's acts only, and only
        # its survivors get full rows
        cells = []

        def counted(*args, **kwargs):
            values = universe_values(*args, **kwargs)
            cells.append(values.size)
            return values

        with mock.patch.object(sweeps_module, "universe_values", counted):
            run_recovery(dict(self.CFG, seed=seed))
        n_candidates = len(grid_from_config(self.CFG["candidates"], UNIT))
        m = build_sigma(2, UNIT, 4, 4, k=1).universe_size
        assert (n_candidates, m) == (2783, 1225)
        assert 0 < sum(cells) <= n_candidates * m // 10


class TestConsistencySweep:
    def test_small_run_shape(self):
        cfg = {
            "version": 1,
            "seed": 0,
            "domain": {"cone": {"alpha": 0.1, "M": 1.0, "d": 2}},
            "family": {"ces": {"rho_grid": [0.5, 2.0], "weight_steps": 4}},
            "noise": {"constant_flip": {"theta": 0.8}},
            "true_preference": {"kind": "ces", "weights": [0.5, 0.5], "rho": 2.0},
            "n_grid": [50, 200],
            "replicates": 3,
            "eval_steps": 10,
            "vc_dimension": 2,
        }
        out = run_consistency(cfg)
        assert [c["cell"] for c in out.report.cells] == [50, 200]
        assert len(out.csv_rows) == 6
        for c in out.report.cells:
            assert c["q25"] <= c["q50"] <= c["q75"]
            assert 0.0 <= c["coverage"] <= 1.0
        # smallest cell is covered by construction of the fitted constant
        assert out.report.cells[0]["coverage"] == 1.0

    def test_threads_do_not_change_results(self):
        cfg = {
            "version": 1,
            "seed": 1,
            "domain": {"box": {"lo": [0, 0], "hi": [1, 1]}},
            "family": {"linear": {"weight_steps": 4}},
            "noise": {"bounded_response": {"theta_min": 0.6, "theta_max": 0.9, "tau": 0.5}},
            "true_preference": {"kind": "linear", "weights": [0.25, 0.75]},
            "n_grid": [40, 80],
            "replicates": 2,
            "eval_steps": 8,
            "vc_dimension": 1,
        }
        a = run_consistency(cfg, threads=1)
        b = run_consistency(cfg, threads=8)
        assert a.csv_rows == b.csv_rows
        assert a.report.to_json() == b.report.to_json()


class TestSeparationSweep:
    def test_one_rho_per_pair(self):
        cfg, calls = CLI_CONFIGS["separation"], []
        rho = estimation.rho
        with mock.patch.object(estimation, "rho", lambda *args: calls.append(args) or rho(*args)):
            out = sweeps_module.run_separation(cfg)
        assert len(calls) == cfg["n_pairs"] == 3 and [r for r, _, _ in out.csv_rows] == [rho(*a) for a in calls]


class TestConvergenceSweeps:
    def test_theorem2_series_decrease_to_tolerance(self):
        out = run_theorem2_demo({"version": 1, "kind": "all", "k_max": 12})
        for name, (ks, vals) in out.series.items():
            assert all(a > b for a, b in zip(vals, vals[1:])), name
            assert vals[-1] <= 1e-3, name

    def test_variational_dh_exact_halving(self):
        out = run_theorem2_demo({"version": 1, "kind": "variational", "k_max": 8})
        _, dh = out.series["variational dh"]
        for a, b in zip(dh, dh[1:]):
            assert b == pytest.approx(a / 2, rel=1e-9)

    def test_dh_matches_direct_recomputation(self):
        from recovery_lab.aa_prefs import aggregator_eval
        from recovery_lab.experiments.sweeps import _sequence_family

        pref_at = _sequence_family("maxmin")
        target, approx = pref_at(0.0), pref_at(0.25)
        axis = np.linspace(0, 1, 9)
        worst = max(
            abs(aggregator_eval(approx, (z1, z2)) - aggregator_eval(target, (z1, z2)))
            for z1 in axis
            for z2 in axis
        )
        out = run_theorem2_demo({"version": 1, "kind": "maxmin", "k_max": 2})
        _, dh = out.series["maxmin dh"]
        assert dh[2] == pytest.approx(worst, abs=1e-12)

    def test_ce_continuity_decreasing(self):
        out = run_ce_continuity({"version": 1, "k_max": 12})
        _, gaps = out.series["|ce_k - ce|"]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3


class TestNonIdentification:
    def test_beta_solves_normalization_quadratic(self):
        out = run_nonidentification_demo({"version": 1, "k_max": 3, "m": 100, "seed": 0})
        v = np.array([0.0, 0.4, 1.0])
        for row in out.csv_rows:
            k, flip, dist, beta = row
            vk = beta + v / k
            assert np.linalg.norm(vk) == pytest.approx(1.0, abs=1e-12)

    def test_disagreement_identically_zero(self):
        out = run_nonidentification_demo({"version": 1, "k_max": 20, "m": 2000, "seed": 1})
        _, flips = out.series["disagreement"]
        assert all(f == 0.0 for f in flips)

    def test_distance_to_constant_scales_inverse_k(self):
        out = run_nonidentification_demo({"version": 1, "k_max": 50, "m": 50, "seed": 2})
        _, dists = out.series["distance to constant"]
        assert dists[0] / dists[-1] == pytest.approx(50.0, rel=1e-9)
        assert all(a > b for a, b in zip(dists, dists[1:]))


class TestUniqueness:
    def test_opposed_priors_separate_at_coarsest_level(self):
        cfg = {
            "version": 1,
            "states": 2,
            "candidates": {
                "eu_grid": {"states": 2, "prior_steps": 1, "knot_positions": [0.5], "value_steps": 2}
            },
            "schedule": [[1, 2], [2, 3]],
        }
        out = run_dense_uniqueness_check(cfg)
        # grid: priors (0,1) and (1,0) with the single index value 0.5
        assert all(level == 0 for _, _, level in out.csv_rows)

    def test_all_pairs_separated_with_fine_schedule(self):
        cfg = {
            "version": 1,
            "states": 2,
            "candidates": {
                "eu_grid": {"states": 2, "prior_steps": 4, "knot_positions": [0.5], "value_steps": 4}
            },
            "schedule": [[1, 2], [2, 3], [4, 5], [8, 5]],
        }
        out = run_dense_uniqueness_check(cfg)
        assert all(level >= 0 for _, _, level in out.csv_rows)
        n = 15  # 5 priors x 3 index values
        assert len(out.csv_rows) == n * (n - 1) // 2


def brute_inversions(values, a, partners, tol=VALUE_TIE_TOL):
    """Every column pair of row a against each partner row, one at a time."""
    m = values.shape[1]
    return np.array([
        any(values[a, j] < values[a, i] - tol and values[b, j] > values[b, i] + tol
            for i in range(m) for j in range(m))
        for b in partners
    ], bool)


# values a tie apart, within VALUE_TIE_TOL, and on its edges
NEAR_TIES = st.sampled_from([0.0, 0.25, 0.5, 1.0]).flatmap(
    lambda x: st.sampled_from([x, x + 5e-13, x - 5e-13, x + 1e-12, x + 2e-12, x - 3e-12]))


class TestStrictInversions:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(2, 6), m=st.integers(1, 7), cells=st.integers(1, 20), data=st.data())
    def test_every_member_pair_matches_the_brute_force(self, rows, m, cells, data):
        values = np.array(data.draw(st.lists(NEAR_TIES, min_size=rows * m, max_size=rows * m)))
        values = values.reshape(rows, m)
        # a small slab forces several blocks of partners per member
        with mock.patch.object(sweeps_module, "_GATHER_CELLS", cells):
            for a in range(rows - 1):
                partners = np.arange(a + 1, rows)
                got = sweeps_module._strict_inversions(values, a, partners)
                assert got.tolist() == brute_inversions(values, a, partners).tolist()

    @pytest.mark.parametrize("a_gap, b_gap, want", [
        (VALUE_TIE_TOL, 1.0, False),  # a difference of exactly the tolerance is a tie
        (1.0, VALUE_TIE_TOL, False),
        (2 * VALUE_TIE_TOL, 1.0, True),
        (1.0, 2 * VALUE_TIE_TOL, True),
    ])
    def test_a_gap_of_the_tolerance_is_a_tie(self, a_gap, b_gap, want):
        values = np.array([[0.0, a_gap], [b_gap, 0.0]])
        assert brute_inversions(values, 0, [1]).tolist() == [want]
        assert sweeps_module._strict_inversions(values, 0, np.array([1])).tolist() == [want]

    def test_uniqueness_levels_match_the_pairwise_reference(self):
        cfg = {
            "version": 1,
            "states": 2,
            "candidates": {
                "eu_grid": {"states": 2, "prior_steps": 4, "knot_positions": [0.5], "value_steps": 8}
            },
            "schedule": [[1, 2], [2, 3]],
        }
        out = run_dense_uniqueness_check(cfg)
        members = eu_grid(2, UNIT, 4, [0.5], 8)
        want = {}
        for level, (den, gc) in enumerate(cfg["schedule"]):
            values = universe_values(members, build_sigma(2, UNIT, den, gc, k=1))
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    if (a, b) not in want and brute_inversions(values, a, [b])[0]:
                        want[a, b] = level
        assert [(a, b, want.get((a, b), -1)) for a, b, _ in out.csv_rows] == [tuple(r) for r in out.csv_rows]


class TestBoundSweep:
    def test_rows_and_cells(self):
        cfg = {
            "version": 1,
            "K": 1.0,
            "C_bar": 1.0,
            "V": 3,
            "D": 2,
            "delta": 0.1,
            "n_grid": [100, 400],
        }
        out = run_bound(cfg)
        assert out.csv_rows[0][0] == 100
        assert out.csv_rows[0][1] == pytest.approx(0.62274, abs=1e-4)
        vals = [v for _, v in out.csv_rows]
        assert vals == sorted(vals, reverse=True)
