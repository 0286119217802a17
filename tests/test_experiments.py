"""Finite experiments, rationalization, and the sweep runners."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab.aa_prefs import (
    AAPreference,
    BernoulliIndex,
    Prior,
    expected_utility,
    index_distance,
)
from recovery_lab.errors import EnumerationCapError, IntervalMismatchError
from recovery_lab.experiments import (
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
from recovery_lab.experiments.prefgrids import index_value_grid
from recovery_lab.experiments.sigma import VALUE_TIE_TOL, diagonal_pair_iter
from recovery_lab.lotteries import UNIT, Interval, delta, fosd_compare
from recovery_lab.aa_prefs import act_value
from test_aa_prefs import kernel_pref, loop_act_value
from test_acceptance import RECOVERY_CFGS

IDENT = BernoulliIndex.identity()


def small_sigma(k=1, states=1, den=1, grid=2):
    return build_sigma(states, UNIT, den, grid, k=k)


class TestSigma:
    def test_single_state_minimal_universe(self):
        sig = small_sigma()
        assert sig.universe_size == 2
        lots = [a.per_state[0] for a in sig.universe]
        assert fosd_compare(lots[0], delta(0.0)).name == "EQUAL"
        assert fosd_compare(lots[1], delta(1.0)).name == "EQUAL"
        assert sig.pairs == ((0, 1),)

    def test_pair_count_choose_two(self):
        # universe of 6 lotteries from denominator 2 on a 3-point grid
        sig = build_sigma(1, UNIT, 2, 3, k=15)
        assert sig.universe_size == 6
        assert len(sig.pairs) == 15

    def test_k_exceeding_pairs_raises(self):
        with pytest.raises(EnumerationCapError):
            build_sigma(1, UNIT, 1, 2, k=2)

    def test_diagonal_order_every_pair_once(self):
        pairs = list(diagonal_pair_iter(6))
        assert len(pairs) == 15
        assert len(set(pairs)) == 15
        sums = [i + j for i, j in pairs]
        assert sums == sorted(sums)

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
        assert np.allclose(fast, slow, atol=1e-12)


def reference_universe_values(prefs, sig):
    """Values through a per-preference table of scalar expected utilities,
    the prior-weighted states summed in state order."""
    table = np.array([[expected_utility(p.index, lot) for lot in sig.base_lotteries] for p in prefs])
    priors = np.stack([p.prior.as_array for p in prefs])
    statewise = table[:, np.asarray(sig.act_indices)]  # (P, m, S)
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
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["maxmin", "variational"]),
           level=st.sampled_from([(1, 2), (2, 2), (1, 3)]))
    def test_other_kinds_rows_are_each_acts_value(self, states, seed, kind, level):
        rng = np.random.default_rng(seed)
        prefs = [kernel_pref(rng, kind, states, True) for _ in range(3)]
        prefs.insert(1, eu_grid(states, UNIT, 2, [0.5], 4)[0])
        sig = build_sigma(states, UNIT, *level, k=1)
        values = universe_values(prefs, sig)
        for r in (0, 2, 3):
            want = [loop_act_value(prefs[r], f) for f in sig.universe]
            assert np.array_equal(values[r], want)
            assert np.array_equal(values[r], [act_value(prefs[r], f) for f in sig.universe])


class TestGeneratedChoices:
    def test_dominating_act_chosen(self):
        sig = small_sigma()
        pref = AAPreference.eu(IDENT, Prior((1.0,)))
        data = generated_choices(pref, sig)
        assert data.chosen[0] == frozenset((1,))  # the sure-1 act wins

    def test_equal_values_keep_both(self):
        sig = build_sigma(2, UNIT, 1, 2, k=6)
        pref = AAPreference.eu(IDENT, Prior((0.5, 0.5)))
        data = generated_choices(pref, sig)
        values = universe_values([pref], sig)[0]
        for (i, j), ch in zip(sig.pairs, data.chosen):
            if abs(values[i] - values[j]) <= VALUE_TIE_TOL:
                assert ch == frozenset((i, j))

    def test_state_prior_drives_choice(self):
        sig = build_sigma(2, UNIT, 1, 2, k=6)
        pref = AAPreference.eu(IDENT, Prior((1.0, 0.0)))
        data = generated_choices(pref, sig)
        # find the pair {(d1, d0), (d0, d1)}; the first-state-win act must win
        for (i, j), ch in zip(sig.pairs, data.chosen):
            vi = act_value(pref, sig.universe[i])
            vj = act_value(pref, sig.universe[j])
            if abs(vi - vj) > VALUE_TIE_TOL:
                assert ch == frozenset((i,) if vi > vj else (j,))


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
        assert any(len(c) == 1 for c in data.chosen)
        assert weakly_rationalizes(cand, data)
        assert not strongly_rationalizes(cand, data)


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
        pi = np.array([p[0] for p in sig.pairs])
        pj = np.array([p[1] for p in sig.pairs])

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
LEVELS = {1: [(2, 3), (3, 3), (4, 4)], 2: [(1, 2), (2, 2), (2, 3), (3, 3)]}


@st.composite
def recovery_configs(draw):
    states = draw(st.integers(1, 2))
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
    k_grid = draw(st.lists(st.integers(0, last), min_size=1, max_size=4))
    k_grid += draw(st.sampled_from([[], [0], [last], [0, last]]))
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
