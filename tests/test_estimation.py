"""ERM search, separation estimates, shattering search, and the bound."""

import math
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recovery_lab import estimation
from recovery_lab.errors import (
    CombinatorialCapError,
    EmptyGridError,
    NumericalGuardError,
    ShapeMismatchError,
)
from recovery_lab.estimation import (
    BoundParams,
    ErmResult,
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
    value_rows,
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
        assert len(fam.members()) == 0
        with pytest.raises(EmptyGridError):
            erm_fit(fam, EMPTY)

    def test_negative_refinements_rejected(self):
        with pytest.raises(ValueError, match="refinements"):
            erm_fit(LIN_FAMILY, CONTRADICTORY, refinements=-1)


def reference_values(u: WaldUtility, x: np.ndarray) -> np.ndarray:
    """value_batch as one body per kind, before its split into powers and from_powers."""
    w = np.asarray(u.weights, dtype=float)
    if u.kind == "linear":
        return x @ w
    if u.kind == "cobb_douglas":
        return np.prod(np.power(x, w), axis=-1)
    if u.rho < 0.0:
        out = np.zeros(x.shape[:-1])
        pos = np.all(x > 0.0, axis=-1)
        if np.any(pos):
            out[pos] = np.power(np.power(x[pos], u.rho) @ w, 1.0 / u.rho)
        return out
    return np.power(np.power(x, u.rho) @ w, 1.0 / u.rho)


def reference_erm_fit(family: UtilityFamily, ds: Dataset, refinements: int = 2) -> ErmResult:
    """The per-member ERM loop: every candidate's values computed from the records."""
    members = family.members()

    def score(u):
        return score_from_values(reference_values(u, ds.chosen), reference_values(u, ds.rejected))

    def better(cand_score, cand, best_score, best):
        if cand_score > best_score:
            return True
        return cand_score == best_score and cand.param_tuple() < best.param_tuple()

    best = members[0]
    best_score = score(best)
    evaluated = [best_score]
    for m in members[1:]:
        s = score(m)
        evaluated.append(s)
        if better(s, m, best_score, best):
            best, best_score = m, s
    for level in range(1, refinements + 1):
        for cand in family.refine_around(best, level):
            if cand == best:
                continue
            s = score(cand)
            evaluated.append(s)
            if better(s, cand, best_score, best):
                best, best_score = cand, s
    log = {"grid_size": len(members), "refinement_levels": refinements, "evaluated": len(evaluated)}
    return ErmResult(best, best_score, ds.n, evaluated.count(best_score), log)


@st.composite
def value_row_cases(draw):
    """Linear, Cobb-Douglas and CES members in one list, rhos of either sign
    and (kind, rho) keys repeated, over points with many zero coordinates."""
    d = draw(st.integers(1, 4))
    members = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["linear", "cobb_douglas", "ces"]))
        low = 1 if kind == "cobb_douglas" else 0
        counts = draw(st.lists(st.integers(low, 5), min_size=d, max_size=d).filter(any))
        rho = draw(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 3.0])) if kind == "ces" else None
        members.append(WaldUtility(kind, tuple(c / sum(counts) for c in counts), rho))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 1.0, (draw(st.integers(0, 30)), d))
    x[rng.uniform(size=x.shape) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = 0.0
    return members, x


class TestValueRows:
    @settings(max_examples=80, deadline=None)
    @given(case=value_row_cases())
    def test_each_row_is_the_reference_alone_or_in_a_list(self, case):
        members, x = case
        rows = list(value_rows(members, x))
        assert len(rows) == len(members)
        for u, row in zip(members, rows):
            assert np.array_equal(row, reference_values(u, x))
            assert np.array_equal(next(value_rows([u], x)), row)
            assert np.array_equal(u.value_batch(x), row)

    @pytest.mark.parametrize("kind, rho", [("cobb_douglas", None), ("ces", 2.0), ("ces", -1.0)])
    def test_negative_bundle_raises(self, kind, rho):
        members = [WaldUtility("linear", (0.5, 0.5)), WaldUtility(kind, (0.5, 0.5), rho)]
        x = np.array([[0.5, 0.25], [0.5, -0.25]])
        assert np.array_equal(next(value_rows(members, x)), members[0].value_batch(x))
        with pytest.raises(ValueError, match="nonnegative"):
            list(value_rows(members, x))
        with pytest.raises(ValueError, match="nonnegative"):
            members[1].value_batch(x)

    @settings(max_examples=80, deadline=None)
    @given(
        case=value_row_cases(),
        decades=st.sampled_from([300.0, 30.0]),
        rho=st.sampled_from([-60.0, 60.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_extreme_bundles_give_the_reference_or_a_guard(self, case, decades, rho, seed):
        # magnitudes up to 1e+-300 and rhos up to +-60: a row is finite and the
        # reference's, or the call raises the guard; numpy never warns
        members, x = case
        members.append(WaldUtility("ces", members[0].weights, rho))
        x = x * 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, x.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rows = list(value_rows(members, x))
            except NumericalGuardError:
                return
        for u, row in zip(members, rows):
            with np.errstate(all="ignore"):
                assert np.array_equal(row, reference_values(u, x))
            assert np.all(np.isfinite(row))

    @pytest.mark.parametrize(
        "rho, x",
        [
            (-400.0, [[0.0625, 0.5]]),  # x**rho overflows: the table is not finite
            (-2.0, [[1e300, 1e300]]),  # x**rho underflows to 0, so 0**(1/rho) is inf
        ],
    )
    def test_non_finite_values_are_a_guard(self, rho, x):
        u = WaldUtility("ces", (0.5, 0.5), rho)
        x = np.array([[0.5, 0.25], *x])
        with pytest.raises(NumericalGuardError, match=f"rho={rho}"):
            u.value_batch(x)
        # erm_fit raises it too, whether the table or a value is not finite
        ds = Dataset(x, x[::-1], {"n": 2})
        with pytest.raises(NumericalGuardError, match=f"rho={rho}"):
            erm_fit(UtilityFamily("ces", BoxDomain((0.0, 0.0), (1e300, 1e300)), 2, (rho,)), ds)


@st.composite
def erm_cases(draw):
    """A family (linear, Cobb-Douglas, or CES with rhos of either sign, repeats
    allowed) and a dataset whose coordinates are often zero or coarse, so
    the rho < 0 zero convention and score ties both occur."""
    d = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["linear", "cobb_douglas", "ces"]))
    rhos = ()
    if kind == "ces":
        rho = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0])
        rhos = tuple(draw(st.lists(rho, min_size=1, max_size=4)))
    family = UtilityFamily(kind, BoxDomain.unit(d), draw(st.integers(d, 6)), rhos)
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 1.0, (2, n, d))
    if draw(st.booleans()):
        x = np.round(x, 1)  # coarse values: many zeros and exact ties
    x[rng.uniform(size=x.shape) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = 0.0
    ds = Dataset(x[0], x[1], {"n": n})
    return family, ds, draw(st.integers(0, 2))


class TestErmMatchesPerMemberLoop:
    @settings(max_examples=60, deadline=None)
    @given(case=erm_cases())
    def test_same_result_as_reference(self, case):
        family, ds, refinements = case
        got = erm_fit(family, ds, refinements)
        assert got.to_dict() == reference_erm_fit(family, ds, refinements).to_dict()


@st.composite
def sign_scorer_cases(draw):
    """Linear, Cobb-Douglas or CES families with rhos of +-0.05 and +-20,
    records whose magnitudes reach 1e+-150 (less for |rho| = 20, so every
    power stays finite), swapped-coordinate exact ties, near ties a few ulps
    apart, zeros, and a slab size small enough that one (kind, rho) group
    spans several sign matmuls."""
    d = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["linear", "cobb_douglas", "ces"]))
    rhos = ()
    if kind == "ces":
        rhos = tuple(draw(st.lists(st.sampled_from([-20.0, -0.05, 0.05, 20.0]), min_size=1, max_size=3)))
    family = UtilityFamily(kind, BoxDomain.unit(d), draw(st.integers(d, 5)), rhos)
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = min(150.0, 250.0 / max(map(abs, rhos), default=1.0))
    shape = draw(st.sampled_from([(1, 1, 1), (2, n, 1), (2, n, d)]))  # one scale, per record or per coordinate
    x = rng.uniform(0.5, 1.0, (2, n, d)) * 10.0 ** rng.uniform(-top, top, shape)
    tied = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    x[1, tied] = x[0, tied][:, ::-1]  # the chosen bundle with its coordinates swapped
    near = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.3]))
    ulps = rng.integers(-3, 4, (int(near.sum()), 1)) * np.finfo(float).eps
    x[1, near] = x[0, near] * (1.0 + ulps)  # the chosen bundle scaled by a few ulps
    x[rng.uniform(size=x.shape) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    return family, Dataset(x[0], x[1], {"n": n}), draw(st.integers(0, 2)), draw(st.sampled_from([1, 7, 64]))


class TestSignScorer:
    @settings(max_examples=80, deadline=None)
    @given(case=sign_scorer_cases())
    def test_same_result_as_reference(self, case):
        family, ds, refinements, cells = case
        with np.errstate(all="ignore"):
            values = [reference_values(u, x) for u in family.members() for x in (ds.chosen, ds.rejected)]
        assume(all(np.all(np.isfinite(v)) for v in values))
        with mock.patch.object(estimation, "_SLAB_CELLS", cells):
            got = erm_fit(family, ds, refinements)
        assert got.to_dict() == reference_erm_fit(family, ds, refinements).to_dict()


class TestSigns:
    @settings(max_examples=80, deadline=None)
    @given(case=sign_scorer_cases())
    def test_each_cell_is_the_sign_of_the_value_difference(self, case):
        family, ds, _, cells = case
        grid = family.members()
        with np.errstate(all="ignore"):
            values = [reference_values(u, x) for u in grid for x in (ds.chosen, ds.rejected)]
        assume(all(np.all(np.isfinite(v)) for v in values))
        with mock.patch.object(estimation, "_SLAB_CELLS", cells):
            slabs = list(estimation._signs(grid, ds.chosen, ds.rejected))
        members = np.concatenate([m for m, _ in slabs])
        assert sorted(members) == list(range(len(grid)))
        assert all(c.shape == (len(m), ds.n) and c.size <= max(cells, ds.n) for m, c in slabs)
        got = np.empty((len(grid), ds.n))
        for m, c in slabs:
            got[m] = c
        vx, vy = (np.array([*value_rows(grid, x)]) for x in (ds.chosen, ds.rejected))
        with np.errstate(over="ignore"):
            assert np.array_equal(got, np.sign(vx - vy))


class TestErmWork:
    # perfbench's gen-fit op: 5,000 box records, fitted on 1,300 CES members
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_sign_scorer_decides_every_candidate(self, seed):
        box = BoxDomain.unit(3)
        truth = WaldUtility("ces", (0.25, 0.25, 0.5), 0.5)
        ds = generate_dataset(box, truth, ConstantFlip(0.75), 5000, seed)
        family = UtilityFamily("ces", box, 24, (0.5, 1.0, 2.0, 4.0))
        calls = []

        def counted(members, x):
            calls.append(len(members))
            return value_rows(members, x)

        with mock.patch.object(estimation, "value_rows", counted):
            got = erm_fit(family, ds)
        assert calls == []
        assert got.to_dict() == reference_erm_fit(family, ds).to_dict()

    def test_builds_a_utility_only_for_each_level_winner(self):
        box = BoxDomain.unit(3)
        ds = generate_dataset(box, WaldUtility("ces", (0.25, 0.25, 0.5), 0.5), ConstantFlip(0.75), 5000, 1)
        family = UtilityFamily("ces", box, 24, (0.5, 1.0, 2.0, 4.0))
        built = []
        check = WaldUtility.__post_init__
        with mock.patch.object(WaldUtility, "__post_init__", lambda u: built.append(u) or check(u)):
            got = erm_fit(family, ds, refinements=2)
        assert got.search_log["evaluated"] > 1300 and 1 <= len(built) <= 3

    def test_int_rhos_stay_ints(self):
        family = UtilityFamily("ces", BOX, 4, (2, -1, 1))
        grid = family.members()
        assert grid.rhos == (-1, 1, 2) and all(type(r) is int for r in grid.rhos)
        assert all(type(m.rho) is int for m in grid)
        ds = noiseless_dataset(WaldUtility("ces", (0.25, 0.75), 1), BOX, 50, seed=20)
        best = erm_fit(family, ds, refinements=0).to_dict()["best"]
        assert best["rho"] == 1 and type(best["rho"]) is int


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


@pytest.mark.parametrize("helper", [
    lambda u, m: mu_estimate(u, u, ConstantFlip(0.75), BOX, m, seed=9),
    lambda u, m: separation_estimate(u, u, ConstantFlip(0.75), BOX, m, seed=9),
    lambda u, m: disagreement(u, u, BOX, m, seed=9),
], ids=["mu_estimate", "separation_estimate", "disagreement"])
def test_monte_carlo_helpers_need_one_pair(helper):
    with pytest.raises(ValueError, match="m must be >= 1"):
        helper(WaldUtility("linear", (0.3, 0.7)), 0)


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


def reference_vc_lower_bound(family, domain, k, trials, seed, proposals=()):
    """The per-problem draws and per-labeling loop the batched search replaced,
    on every member's values."""
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
        if any(len(c) == k_try and shattered(c) for c in proposals):
            return k_try
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


def tie_witnesses(domain):
    """Candidate sets built on exact ties in the domain: a point against its
    coordinates reversed, which a member with mirrored weights ranks equal, the
    same pair halved or mirrored, which a homogeneous member ranks alike, and
    the pair a few ulps apart."""
    p = np.array([0.6, 0.3] if domain.dim == 2 else [0.4, 0.38, 0.36])
    q = p[::-1]
    assert domain.contains(p) and domain.contains(q)
    tie, halved, mirrored, near = (p, q), (p / 2, q / 2), (q / 2, p / 2), (p, q * (1 + 2 * np.finfo(float).eps))
    return [[tie], [near], [tie, halved], [tie, mirrored], [near, halved], [tie, halved, mirrored]]


class TestVcLowerBound:
    @pytest.mark.parametrize("case", sorted(VC_CASES))
    def test_matches_the_per_problem_search(self, case):
        family, domain = VC_CASES[case]
        for seed in range(6):
            args = (family, domain, 1 + seed % 3, 4, seed)
            assert vc_lower_bound(*args) == reference_vc_lower_bound(*args)
            for witness in tie_witnesses(domain):
                want = reference_vc_lower_bound(*args, proposals=[witness])
                assert vc_lower_bound(*args, proposals=[witness]) == want

    def test_builds_no_utility_when_every_cell_is_decided(self):
        # the benchmark's consistency family: 68 CES members on the cone
        family = UtilityFamily("ces", CONE, 16, (0.5, 1.0, 2.0, 4.0))
        built = []
        check = WaldUtility.__post_init__
        with mock.patch.object(WaldUtility, "__post_init__", lambda u: built.append(u) or check(u)):
            got = vc_lower_bound(family, CONE, k=2, trials=10, seed=0)
        assert len(family.members()) == 68 and built == []
        assert got == reference_vc_lower_bound(family, CONE, 2, 10, 0)

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
