"""ERM search, separation estimates, shattering search, and the bound."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from recovery_lab.errors import CombinatorialCapError, EmptyGridError, ShapeMismatchError
from recovery_lab.estimation import (
    BoundParams,
    bound_eval,
    disagreement,
    empirical_score,
    erm_fit,
    mu_estimate,
    rho,
    score_from_values,
    separation_estimate,
    separation_exponent_check,
    vc_lower_bound,
)
from recovery_lab.noisy_choice import (
    ConstantFlip,
    Dataset,
    generate_dataset,
)
from recovery_lab.wald_env import (
    BoxDomain,
    ConeDomain,
    UtilityFamily,
    WaldUtility,
    lattice_points,
)

BOX = BoxDomain.unit(2)
CONE = ConeDomain(0.1, 1.0, 2)
LIN_FAMILY = UtilityFamily("linear", BOX, weight_steps=8)
CES_FAMILY = UtilityFamily("ces", CONE, weight_steps=8, rho_grid=(0.5, 2.0))


def noiseless_dataset(u: WaldUtility, domain, n, seed):
    rng = np.random.default_rng(seed)
    chosen, rejected = [], []
    for _ in range(n):
        x, y = domain.sample(rng), domain.sample(rng)
        if u.value(x) >= u.value(y):
            chosen.append(x), rejected.append(y)
        else:
            chosen.append(y), rejected.append(x)
    return Dataset(np.array(chosen), np.array(rejected), {"format": "choice-dataset/1", "n": n})


# one problem presented twice, choosing a different option each time
CONTRADICTORY = Dataset(
    np.array([[1.0, 0.2], [0.1, 0.3]]), np.array([[0.1, 0.3], [1.0, 0.2]]), {"n": 2}
)
EMPTY = Dataset(np.empty((0, 2)), np.empty((0, 2)), {"n": 0})


class TestEmpiricalScore:
    def test_own_noiseless_data_scores_one(self):
        u = WaldUtility("linear", (0.375, 0.625))
        ds = noiseless_dataset(u, BOX, 200, seed=0)
        assert empirical_score(u, ds) == 1.0

    def test_contradictory_pair_scores_half(self):
        ds = CONTRADICTORY
        for u in LIN_FAMILY.members():
            if u.value(ds.chosen[0]) != u.value(ds.rejected[0]):
                assert empirical_score(u, ds) == 0.5

    def test_empty_dataset_convention(self):
        ds = EMPTY
        assert empirical_score(LIN_FAMILY.members()[0], ds) == 1.0

    def test_score_times_n_is_integer(self):
        u = WaldUtility("linear", (0.5, 0.5))
        ds = generate_dataset(BOX, u, ConstantFlip(0.75), 137, seed=1)
        s = empirical_score(u, ds)
        assert abs(s * ds.n - round(s * ds.n)) < 1e-9

    def test_scale_coherence(self):
        rng = np.random.default_rng(2)
        vc, vr = rng.uniform(0, 1, 500), rng.uniform(0, 1, 500)
        vr[::7] = vc[::7]
        base = score_from_values(vc, vr)
        for transform in (np.exp, lambda t: t**3 + t, lambda t: -1.0 / (1.0 + t)):
            assert score_from_values(transform(vc), transform(vr)) == base


class TestErmFit:
    def test_noiseless_recovery_of_grid_member(self):
        u_true = LIN_FAMILY.members()[3]
        ds = noiseless_dataset(u_true, BOX, 500, seed=3)
        result = erm_fit(LIN_FAMILY, ds)
        assert result.score == 1.0
        # exhaustive check: the truth attains the max, the winner matches it
        assert empirical_score(u_true, ds) == 1.0
        assert empirical_score(result.best, ds) == 1.0

    def test_empty_dataset_lexicographic_minimum(self):
        ds = EMPTY
        result = erm_fit(LIN_FAMILY, ds)
        assert result.score == 1.0
        lex_min = min(LIN_FAMILY.members(), key=lambda m: m.param_tuple())
        assert result.best == lex_min

    def test_contradictory_dataset(self):
        ds = CONTRADICTORY
        result = erm_fit(LIN_FAMILY, ds)
        assert result.score == 0.5
        assert result.best == min(LIN_FAMILY.members(), key=lambda m: m.param_tuple())
        assert result.ties >= len(LIN_FAMILY.members())

    def test_grid_optimality_exhaustive(self):
        u_true = CES_FAMILY.members()[7]
        ds = generate_dataset(CONE, u_true, ConstantFlip(0.8), 300, seed=4)
        result = erm_fit(CES_FAMILY, ds)
        for member in CES_FAMILY.members():
            assert result.score >= empirical_score(member, ds)

    def test_deterministic(self):
        u_true = CES_FAMILY.members()[5]
        ds = generate_dataset(CONE, u_true, ConstantFlip(0.8), 200, seed=5)
        a, b = erm_fit(CES_FAMILY, ds), erm_fit(CES_FAMILY, ds)
        assert a == b

    def test_record_dimension_must_match_family(self):
        u = WaldUtility("linear", (0.2, 0.3, 0.5))
        ds = generate_dataset(BoxDomain.unit(3), u, ConstantFlip(0.8), 10, seed=6)
        with pytest.raises(ShapeMismatchError):
            erm_fit(LIN_FAMILY, ds)

    def test_empty_grid_raises(self):
        fam = UtilityFamily("cobb_douglas", BOX, weight_steps=1)
        assert fam.members() == []
        with pytest.raises(EmptyGridError):
            erm_fit(fam, EMPTY)


class TestRho:
    def test_self_distance(self):
        u = WaldUtility("ces", (0.5, 0.5), rho=2.0)
        assert rho(u, u, lattice_points(CONE, 10)) == 0.0

    def test_opposed_corners(self):
        grid = lattice_points(BOX, 4)  # contains the corner (1, 0)
        d = rho(WaldUtility("linear", (1.0, 0.0)), WaldUtility("linear", (0.0, 1.0)), grid)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_single_point_lower_bound(self):
        grid = lattice_points(BOX, 4)
        d = rho(
            WaldUtility("ces", (0.5, 0.5), rho=2.0),
            WaldUtility("linear", (0.5, 0.5)),
            grid,
        )
        assert d >= abs(math.sqrt(0.5) - 0.5) - 1e-12

    def test_pseudometric_on_random_triples(self):
        rng = np.random.default_rng(6)
        members = CES_FAMILY.members()
        grid = lattice_points(CONE, 10)
        for _ in range(60):
            a, b, c = (members[i] for i in rng.integers(0, len(members), 3))
            dab, dba = rho(a, b, grid), rho(b, a, grid)
            assert dab == dba
            assert rho(a, c, grid) <= dab + rho(b, c, grid) + 1e-12
            assert rho(a, a, grid) == 0.0

    def test_empty_grid(self):
        with pytest.raises(EmptyGridError):
            rho(
                WaldUtility("linear", (1.0, 0.0)),
                WaldUtility("linear", (0.0, 1.0)),
                np.empty((0, 2)),
            )


class TestMuEstimate:
    def test_self_mu_is_half_theta(self):
        # symmetry: the favored option wins a coin flip with prob theta and
        # the pair ordering is exchangeable, so mu(true, true) = theta / 2
        u = WaldUtility("ces", (0.5, 0.5), rho=2.0)
        for theta in (0.6, 0.75, 0.9):
            est, se = mu_estimate(u, u, ConstantFlip(theta), CONE, 100_000, seed=7)
            assert abs(est - theta / 2) <= 3 * se

    def test_near_perfect_accuracy(self):
        u = WaldUtility("linear", (0.3, 0.7))
        est, se = mu_estimate(u, u, ConstantFlip(0.999), BOX, 50_000, seed=8)
        assert abs(est - 0.4995) <= 3 * se + 1e-4

    def test_single_sample_degenerate(self):
        u = WaldUtility("linear", (0.3, 0.7))
        est, se = mu_estimate(u, u, ConstantFlip(0.75), BOX, 1, seed=9)
        assert se == 0.0
        assert 0.0 <= est <= 1.0


class TestSeparation:
    def test_identical_preferences_gap_exactly_zero(self):
        u = WaldUtility("linear", (0.3, 0.7))
        gap, se, r = separation_estimate(u, u, ConstantFlip(0.75), BOX, 5000, seed=10)
        assert gap == 0.0
        assert se == 0.0
        assert r == 0.0

    def test_orthogonal_linear_gap_oracle(self):
        # quadrature oracle for u = x1, u' = x2 on the unit box with theta 0.75:
        # mu(true,true)  = P(x1 > y1) * 0.75 = 0.375
        # mu(other,true) = P(x2 >= y2) * E[q] = 0.5 * 0.5  = 0.25
        # (independent coordinates), so the gap is 0.125
        u1 = WaldUtility("linear", (1.0, 0.0))
        u2 = WaldUtility("linear", (0.0, 1.0))
        gap, se, r = separation_estimate(u1, u2, ConstantFlip(0.75), BOX, 200_000, seed=11)
        assert abs(gap - 0.125) <= 3 * se
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_identification_significance(self):
        rng = np.random.default_rng(12)
        members = CES_FAMILY.members()
        for _ in range(5):
            i, j = rng.choice(len(members), 2, replace=False)
            gap, se, r = separation_estimate(
                members[i], members[j], ConstantFlip(0.75), CONE, 200_000, seed=13
            )
            assert r > 0
            assert gap - 3 * se > 0

    def test_exponent_scan(self):
        scan = separation_exponent_check(
            CES_FAMILY, ConstantFlip(0.75), CONE, n_pairs=10, m=20_000, exponent=4, seed=14
        )
        assert scan.violations == 0
        assert len(scan.rows) + scan.skipped == 10
        assert scan.empirical_constant > 0

    def test_exponent_scan_skips_coincident_members(self):
        u = WaldUtility("linear", (0.5, 0.5))

        @dataclass(frozen=True)
        class DegenerateFamily(UtilityFamily):
            def members(self):  # two copies of the same utility
                return [u, u]

        fam = DegenerateFamily("linear", BOX, weight_steps=1)
        scan = separation_exponent_check(
            fam, ConstantFlip(0.75), BOX, n_pairs=3, m=100, exponent=2, seed=15
        )
        assert scan.skipped == 3
        assert scan.rows == ()


def reference_vc_lower_bound(family, domain, k, trials, seed):
    """The per-problem draws and per-labeling loop the batched search replaced."""
    members = family.members()

    def shattered(problems):
        xs, ys = np.stack([x for x, _ in problems]), np.stack([y for _, y in problems])
        vx = np.stack([m.value_batch(xs) for m in members])
        vy = np.stack([m.value_batch(ys) for m in members])
        for labeling in range(2 ** len(problems)):
            bits = np.array([(labeling >> j) & 1 for j in range(len(problems))], dtype=bool)
            if not np.where(bits, vy >= vx, vx >= vy).all(axis=1).any():
                return False
        return True

    for k_try in range(k, 0, -1):
        for t in range(trials):
            rng = np.random.default_rng([seed, k_try, t])
            if shattered([(domain.sample(rng), domain.sample(rng)) for _ in range(k_try)]):
                return k_try
    return 0


THIN_CONE = ConeDomain(0.5, 1.0, 3)
VC_CASES = {
    "box-linear2": (UtilityFamily("linear", BOX, weight_steps=2), BOX),
    "box-linear8": (LIN_FAMILY, BOX),
    "cone-ces": (CES_FAMILY, CONE),
    "cone-cobb_douglas": (UtilityFamily("cobb_douglas", CONE, weight_steps=4), CONE),
    "thin_cone-linear": (UtilityFamily("linear", THIN_CONE, weight_steps=2), THIN_CONE),
}


class TestVcLowerBound:
    @pytest.mark.parametrize("case", sorted(VC_CASES))
    def test_matches_the_per_problem_search(self, case):
        family, domain = VC_CASES[case]
        for seed in range(6):
            args = (family, domain, 1 + seed % 3, 4, seed)
            assert vc_lower_bound(*args) == reference_vc_lower_bound(*args)

    def test_singleton_family_is_zero(self):
        singleton = UtilityFamily("cobb_douglas", BOX, weight_steps=2)
        assert len(singleton.members()) == 1
        assert vc_lower_bound(singleton, BOX, k=2, trials=20, seed=16) == 0

    def test_linear_shatters_one_pair(self):
        fam = UtilityFamily("linear", BOX, weight_steps=2)
        witness = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
        assert vc_lower_bound(fam, BOX, k=1, trials=20, seed=17, proposals=[witness]) >= 1

    def test_linear_shatters_two_pairs_with_witness(self):
        # the symmetric member ties both constructed problems exactly, and the
        # corner members realize the strict labelings; all four labelings are
        # then confirmed by the exhaustive check inside the search
        fam = UtilityFamily("linear", BOX, weight_steps=2)
        witness = [
            (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            (np.array([0.5, 0.0]), np.array([0.0, 0.5])),
        ]
        got = vc_lower_bound(fam, BOX, k=2, trials=5, seed=18, proposals=[witness])
        assert got >= 2

    def test_exhaustive_labeling_oracle_on_witness(self):
        # independent brute force over the 4 labelings of the witness pairs
        fam = UtilityFamily("linear", BOX, weight_steps=2)
        problems = [
            (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            (np.array([0.5, 0.0]), np.array([0.0, 0.5])),
        ]
        for labeling in range(4):
            ok = False
            for m in fam.members():
                fine = True
                for j, (x, y) in enumerate(problems):
                    chosen, rejected = ((y, x) if (labeling >> j) & 1 else (x, y))
                    if m.value(chosen) < m.value(rejected):
                        fine = False
                        break
                ok = ok or fine
            assert ok, f"labeling {labeling} not realizable"

    def test_budget_guard(self):
        with pytest.raises(CombinatorialCapError):
            vc_lower_bound(LIN_FAMILY, BOX, k=20, trials=1, seed=19, budget=1000)


class TestBoundEval:
    def test_reference_value(self):
        bp = BoundParams(K=1.0, C_bar=1.0, V=3, D=2, delta=0.1)
        want = (math.sqrt(0.03) + math.sqrt(2 * math.log(10) / 100)) ** 0.5
        assert want == pytest.approx(0.62274, abs=1e-4)
        assert bound_eval(bp, 100) == pytest.approx(want, abs=1e-12)
        assert bound_eval(bp, 100) == pytest.approx(0.62274, abs=1e-4)

    def test_vanishes_for_huge_n(self):
        bp = BoundParams(K=1.0, C_bar=1.0, V=3, D=2, delta=0.1)
        assert bound_eval(bp, 10**12) < 1e-2

    def test_delta_one_drops_log_term(self):
        bp = BoundParams(K=2.0, C_bar=1.5, V=4, D=2, delta=1.0)
        assert bound_eval(bp, 400) == pytest.approx(1.5 * (2.0 * 0.1) ** 0.5, abs=1e-12)

    def test_monotone_in_n_V_delta(self):
        base = dict(K=1.0, C_bar=1.0, V=3, D=2, delta=0.1)
        ns = [100, 400, 1600, 6400]
        vals = [bound_eval(BoundParams(**base), n) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        vs = [bound_eval(BoundParams(**{**base, "V": v}), 400) for v in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(vs, vs[1:]))
        ds = [bound_eval(BoundParams(**{**base, "delta": d}), 400) for d in (0.5, 0.1, 0.01)]
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundParams(K=0.0, C_bar=1.0, V=1, D=1, delta=0.5)
        with pytest.raises(ValueError):
            BoundParams(K=1.0, C_bar=1.0, V=1, D=1, delta=1.5)


class TestDisagreement:
    def test_self_zero(self):
        u = WaldUtility("ces", (0.5, 0.5), rho=2.0)
        assert disagreement(u, u, CONE, 2000, seed=20) == 0.0

    def test_orthogonal_linear_half(self):
        d = disagreement(
            WaldUtility("linear", (1.0, 0.0)),
            WaldUtility("linear", (0.0, 1.0)),
            BOX,
            100_000,
            seed=21,
        )
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(d - 0.5) <= 3 * sigma

    def test_decreasing_along_parameter_sequence(self):
        target = WaldUtility("linear", (0.5, 0.5))
        last = None
        for k in range(6):
            w = 0.5 + 0.4 * 2.0 ** (-k)
            d = disagreement(
                WaldUtility("linear", (w, 1.0 - w)), target, BOX, 50_000, seed=22
            )
            if last is not None:
                assert d <= last
            last = d
