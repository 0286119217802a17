"""Domains, Wald utilities, sampling, families and lattices."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab import wald_env
from recovery_lab.errors import EnumerationCapError, RejectionCapError, ShapeMismatchError
from recovery_lab.wald_env import (
    BoxDomain,
    ConeDomain,
    UtilityFamily,
    WaldUtility,
    domain_from_dict,
    lattice_points,
)

CONE = ConeDomain(alpha=0.1, M=1.0, d=2)
BOX = BoxDomain.unit(2)


def scalar_sample(domain, rng):
    """One point as the per-point rejection loop draws it: uniform tries on the
    domain's bounding box until one is a member, at most MAX_TRIES of them.  The
    oracle of ``ConeDomain.sample_batch`` and of the dataset generator's draws;
    a box accepts its first try."""
    if isinstance(domain, BoxDomain):
        return domain.sample(rng)
    for _ in range(wald_env.MAX_TRIES):
        x = rng.uniform(0.0, domain.M, size=domain.d)
        if domain.contains(x):
            return x
    raise RejectionCapError(wald_env.CAP_MESSAGE.format(wald_env.MAX_TRIES))


class TestDomains:
    def test_cone_membership_formula(self):
        # ||(0.5, 0.5)|| ~ 0.707 <= 1 and min 0.5 >= 0.0707
        assert CONE.contains((0.5, 0.5))

    def test_origin_is_member(self):
        assert CONE.contains((0.0, 0.0))

    def test_floor_violation_on_sphere_ray(self):
        assert not CONE.contains((1.0, 0.0))

    def test_cone_matches_two_parameter_construction(self):
        # oracle: x is in the domain iff x = theta * s with ||s|| = M and
        # s >= alpha * 1; build points both ways and compare with the closed form
        rng = np.random.default_rng(0)
        for _ in range(500):
            theta = rng.uniform(0, 1)
            raw = rng.uniform(CONE.alpha, 1.0, size=2)
            s = raw / np.linalg.norm(raw) * CONE.M
            if np.min(s) < CONE.alpha:  # not on the sphere patch
                continue
            assert CONE.contains(theta * s)
        for _ in range(500):
            x = rng.uniform(0, CONE.M, size=2)
            norm = np.linalg.norm(x)
            member = norm <= CONE.M and (norm == 0 or np.min(x) >= CONE.alpha * norm / CONE.M)
            if member and norm > 0:
                s = x / norm * CONE.M
                assert np.min(s) >= CONE.alpha - 1e-12 and np.linalg.norm(s) == pytest.approx(1.0)
            assert CONE.contains(x) == member

    def test_scalar_membership_agrees_with_batch_on_the_outer_sphere(self):
        # the norm of one vector and the row norms of a matrix round differently
        # for some points with ||x|| = M; one predicate decides both
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.0, 1.0, size=(20_000, 2))
        pts = CONE.M * raw / np.linalg.norm(raw, axis=1, keepdims=True)
        assert [CONE.contains(x) for x in pts] == CONE.contains_batch(pts).tolist()

    def test_cone_nonempty_invariant(self):
        with pytest.raises(ValueError):
            ConeDomain(alpha=0.8, M=1.0, d=2)

    @pytest.mark.parametrize("M, d", [(1e300, 2), (1e154, 8), (np.inf, 2)])
    def test_cone_whose_squared_norm_overflows_is_refused(self, M, d):
        with pytest.raises(ValueError, match="finite"):
            ConeDomain(alpha=0.1, M=M, d=d)

    def test_cone_just_inside_the_overflow_bound_runs_without_warnings(self):
        cone = ConeDomain(alpha=0.1, M=9e153, d=2)  # d * M**2 = 1.62e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = cone.sample_batch(np.random.default_rng(0), 200)
            assert cone.contains_batch(x).all() and np.isfinite(np.linalg.norm(x, axis=1)).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            CONE.contains((0.1, 0.1, 0.1))

    def test_box_sampling_reproducible(self):
        a = BOX.sample(np.random.default_rng(42))
        b = BOX.sample(np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert BOX.contains(a)
        # scalar draws are rows of a batch, and leave the stream where the batch does
        lopsided = BoxDomain((-1.0, 0.0, 2.0), (0.5, 3.0, 2.5))
        scalar, batch = np.random.default_rng(8), np.random.default_rng(8)
        one_by_one = np.array([lopsided.sample(scalar) for _ in range(1000)])
        assert np.array_equal(one_by_one, lopsided.sample_batch(batch, 1000))
        assert scalar.random() == batch.random()
        # a cone point is a batch of one
        scalar, batch = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(CONE.sample(scalar), CONE.sample_batch(batch, 1)[0])
        assert scalar.random() == batch.random()

    @pytest.mark.parametrize("domain", [BOX, CONE], ids=["box", "cone"])
    def test_an_empty_batch_draws_nothing(self, domain):
        rng, fresh = np.random.default_rng(4), np.random.default_rng(4)
        assert domain.sample_batch(rng, 0).shape == (0, domain.dim)
        assert rng.random() == fresh.random()

    def test_cone_samples_are_members(self):
        rng = np.random.default_rng(1)
        pts = CONE.sample_batch(rng, 10_000)
        assert np.all(CONE.contains_batch(pts))

    def test_cone_acceptance_rate_matches_quadrature(self):
        # fine-grid area estimate of Vol(D)/M^d as the acceptance oracle
        g = 801
        axis = np.linspace(0, CONE.M, g)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        vol_frac = CONE.contains_batch(pts).mean()
        n = 20_000
        rng = np.random.default_rng(2)
        draws = rng.uniform(0, CONE.M, size=(n, 2))
        acc = CONE.contains_batch(draws).mean()
        sigma = np.sqrt(vol_frac * (1 - vol_frac) / n)
        assert abs(acc - vol_frac) <= 3 * sigma

    def test_rejection_cap_error(self, monkeypatch):
        thin = ConeDomain(alpha=0.7070, M=1.0, d=2)
        monkeypatch.setattr(wald_env, "MAX_TRIES", 2)
        with pytest.raises(RejectionCapError):
            thin.sample(np.random.default_rng(3))

    # caps that trip on some draws only: about 1.4% of tries land in the thin
    # cone and 69% in CONE, where a tripping wait often equals the cap exactly
    @pytest.mark.parametrize("alpha, d, cap", [(0.5, 3, 60), (0.5, 3, 150), (0.5, 3, 400),
                                               (0.1, 2, 1), (0.1, 2, 2), (0.1, 2, 3)])
    def test_sample_batch_follows_the_scalar_sampler(self, monkeypatch, alpha, d, cap):
        cone = ConeDomain(alpha=alpha, M=1.0, d=d)
        monkeypatch.setattr(wald_env, "MAX_TRIES", cap)
        outcomes = set()
        for seed in range(20):
            for n in (1, 5, 70):
                rng = np.random.default_rng([seed, n])
                try:
                    want = np.array([scalar_sample(cone, rng) for _ in range(n)])
                except RejectionCapError:
                    want = None
                try:
                    got = cone.sample_batch(np.random.default_rng([seed, n]), n)
                except RejectionCapError:
                    got = None
                assert (want is None) == (got is None)
                assert want is None or np.array_equal(want, got)
                outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_sample_batch_cap_is_per_point(self):
        # 2,000 points at 1.4% acceptance take hundreds of shrinking rounds
        thin = ConeDomain(alpha=0.5, M=1.0, d=3)
        assert np.all(thin.contains_batch(thin.sample_batch(np.random.default_rng(5), 2000)))
        degenerate = ConeDomain(alpha=0.7071, M=1.0, d=2)
        with pytest.raises(RejectionCapError, match="failed after 10000 tries"):
            degenerate.sample_batch(np.random.default_rng(5), 50)

    def test_convexity_witness(self):
        rng = np.random.default_rng(4)
        pts = CONE.sample_batch(rng, 2000)
        for i in range(0, 2000, 2):
            x, y = pts[i], pts[i + 1]
            for t in (0.25, 0.5, 0.75):
                assert CONE.contains(t * x + (1 - t) * y)

    def test_descriptor_roundtrip(self):
        assert domain_from_dict(CONE.to_dict()) == CONE
        assert domain_from_dict(BOX.to_dict()) == BOX


class TestUtilityEval:
    def test_diagonal_normalization(self):
        rng = np.random.default_rng(5)
        for u in [
            WaldUtility("linear", (0.3, 0.7)),
            WaldUtility("ces", (0.5, 0.5), rho=2.0),
            WaldUtility("cobb_douglas", (0.25, 0.75)),
        ]:
            for _ in range(20):
                c = float(rng.uniform(0.01, 1.0))
                assert u.value((c, c)) == pytest.approx(c, abs=1e-12)

    def test_linear_dot(self):
        assert WaldUtility("linear", (0.3, 0.7)).value((1.0, 0.0)) == pytest.approx(0.3)

    def test_ces_formula(self):
        u = WaldUtility("ces", (0.5, 0.5), rho=2.0)
        assert u.value((1.0, 0.0)) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_ces_negative_rho_zero_convention(self):
        u = WaldUtility("ces", (0.5, 0.5), rho=-1.0)
        assert u.value((0.0, 1.0)) == 0.0
        assert u.value((0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_negative_coordinates_rejected(self):
        u = WaldUtility("ces", (0.5, 0.5), rho=0.5)
        with pytest.raises(ValueError):
            u.value((-0.1, 0.5))

    def test_invariants(self):
        with pytest.raises(ValueError):
            WaldUtility("ces", (0.5, 0.5), rho=0.0)
        with pytest.raises(ValueError):
            WaldUtility("cobb_douglas", (0.0, 1.0))
        with pytest.raises(ValueError):
            WaldUtility("linear", (0.4, 0.4))

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(6)
        members = [
            WaldUtility("ces", (0.4, 0.6), rho=2.0),
            WaldUtility("ces", (0.5, 0.5), rho=-1.0),
            WaldUtility("cobb_douglas", (0.3, 0.7)),
            WaldUtility("linear", (0.2, 0.8)),
        ]
        for u in members:
            for _ in range(250):
                x = rng.uniform(0.01, 1.0, size=2)
                for theta in (0.25, 0.5, 0.75):
                    assert abs(u.value(theta * x) - theta * u.value(x)) <= 1e-12


def wald_violations(u, domain, n_points, seed=0):
    """The largest |u(u(x)*1) - u(x)| and |u(tx) - t u(x)| over n_points domain
    samples, and the share of the bundles u(x)*1 inside the domain, batched."""
    x = domain.sample_batch(np.random.default_rng([seed, 2**16]), n_points)
    v = u.value_batch(x)
    certain = np.repeat(v[:, None], domain.dim, axis=1)  # the bundles u(x) * 1
    theta = np.array([0.25, 0.5, 0.75])[:, None]
    scaled = u.value_batch((theta[:, :, None] * x).reshape(-1, domain.dim)).reshape(3, -1)
    return (float(np.max(np.abs(u.value_batch(certain) - v))), float(np.max(np.abs(scaled - theta * v))),
            float(np.mean(domain.contains_batch(certain))))


def reference_wald_violations(u, domain, n_points, seed=0):
    """The per-point loop of ``wald_violations``, through ``value`` and ``contains``."""
    rng = np.random.default_rng([seed, 2**16])
    max_wald = max_hom = 0.0
    inside = 0
    for _ in range(n_points):
        x = scalar_sample(domain, rng)
        v = u.value(x)
        certain = np.full(domain.dim, v)
        max_wald = max(max_wald, abs(u.value(certain) - v))
        inside += domain.contains(certain)
        for theta in (0.25, 0.5, 0.75):
            max_hom = max(max_hom, abs(u.value(theta * x) - theta * v))
    return max_wald, max_hom, inside / n_points


class TestWaldCheck:
    @pytest.mark.parametrize(
        "u, domain",
        [
            (WaldUtility("linear", (0.3, 0.7)), BOX),
            (WaldUtility("ces", (0.5, 0.5), rho=2.0), CONE),
            (WaldUtility("ces", (0.25, 0.75), rho=-1.5), CONE),
            (WaldUtility("cobb_douglas", (0.4, 0.6)), BOX),
            (WaldUtility("ces", (0.2, 0.3, 0.5), rho=0.5), ConeDomain(0.5, 1.0, 3)),
        ],
    )
    def test_matches_the_per_point_loop(self, u, domain):
        # matmul over many rows may round differently from one row in the last bit
        tol = 8 * np.finfo(float).eps
        wald, hom, frac = wald_violations(u, domain, 300, seed=7)
        ref_wald, ref_hom, ref_frac = reference_wald_violations(u, domain, 300, seed=7)
        assert frac == ref_frac
        assert abs(wald - ref_wald) <= tol and abs(hom - ref_hom) <= tol
        assert wald <= 1e-12 and hom <= 1e-12

    def test_linear_on_box_exact(self):
        wald, _, frac = wald_violations(WaldUtility("linear", (0.3, 0.7)), BOX, 200)
        assert wald <= 1e-15  # exact identity up to rounding
        assert frac == 1.0  # u(x) lies in [0, 1] on the unit box

    def test_ces_on_cone(self):
        wald, hom, _ = wald_violations(WaldUtility("ces", (0.5, 0.5), rho=2.0), CONE, 200)
        assert wald <= 1e-12
        assert hom <= 1e-12

    def test_cobb_douglas_halving(self):
        u = WaldUtility("cobb_douglas", (0.5, 0.5))
        assert u.value((1.0, 4.0)) == pytest.approx(2.0, abs=1e-12)
        assert u.value((0.5, 2.0)) == pytest.approx(1.0, abs=1e-12)


def secant_lipschitz(u, domain, steps):
    """The largest secant slope |u(x) - u(y)| / ||x - y|| over pairs of the
    domain's evaluation lattice: a lower bound on u's Lipschitz constant."""
    pts = lattice_points(domain, steps)
    vals = u.value_batch(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    off = dist > 0
    return float(np.max(np.abs(vals[:, None] - vals[None, :])[off] / dist[off]))


class TestLipschitz:
    def test_linear_recovers_weight_norm(self):
        w = (0.3, 0.7)
        est = secant_lipschitz(WaldUtility("linear", w), BOX, 10)
        assert est == pytest.approx(float(np.linalg.norm(w)), abs=1e-9)

    def test_degenerate_weight(self):
        est = secant_lipschitz(WaldUtility("linear", (1.0, 0.0)), BOX, 4)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_ces_refinement_oracle(self):
        # oracle: max finite-difference gradient norm on a much finer grid
        inner = BoxDomain((0.1, 0.1), (1.0, 1.0))
        u = WaldUtility("ces", (0.5, 0.5), rho=2.0)
        h = 1e-4
        axis = np.linspace(0.1, 1.0 - h, 150)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        base = u.value_batch(pts)
        gx = (u.value_batch(pts + np.array([h, 0.0])) - base) / h
        gy = (u.value_batch(pts + np.array([0.0, h])) - base) / h
        oracle = float(np.max(np.hypot(gx, gy)))
        est = secant_lipschitz(u, inner, 18)
        assert np.isfinite(est)
        assert est <= 1.01 * oracle
        # this CES utility has constant gradient norm 1/sqrt(2)
        assert est == pytest.approx(1 / np.sqrt(2), abs=0.05)

    def test_box_lattice_keeps_its_upper_face(self):
        # 18 steps of 0.05 from 0.1: each axis ends at 1.0 exactly
        pts = lattice_points(BoxDomain((0.1, 0.1), (1.0, 1.0)), 18)
        assert len(pts) == 19 * 19
        assert pts.min() == 0.1 and pts.max() == 1.0
        assert any((p == (1.0, 1.0)).all() for p in pts)

    def test_family_members_are_one_lipschitz(self):
        # a linear member's slope is its weight norm, at most 1 on the simplex;
        # each weight direction (i, 4 - i) / 4 is a lattice step at 4 steps
        for m in UtilityFamily("linear", BOX, weight_steps=4).members():
            est = secant_lipschitz(m, BOX, 4)
            assert est == pytest.approx(float(np.linalg.norm(m.weights)), abs=1e-12)
            assert est <= 1.0 + 1e-12


class TestFamilies:
    def test_member_count(self):
        fam = UtilityFamily("linear", BOX, weight_steps=4)
        assert len(fam.members()) == 5

    def test_cobb_douglas_interior_only(self):
        fam = UtilityFamily("cobb_douglas", BOX, weight_steps=4)
        assert all(min(m.weights) > 0 for m in fam.members())
        assert len(fam.members()) == 3

    def test_ces_grid_product(self):
        fam = UtilityFamily("ces", CONE, weight_steps=2, rho_grid=(0.5, 2.0))
        assert len(fam.members()) == 6
        assert all(m.rho in (0.5, 2.0) for m in fam.members())

    def test_wald_property_for_all_members(self):
        fam = UtilityFamily("ces", CONE, weight_steps=4, rho_grid=(0.5, 2.0))
        rng = np.random.default_rng(7)
        pts = CONE.sample_batch(rng, 1000)
        for m in fam.members():
            vals = m.value_batch(pts)
            diag = np.stack([vals, vals], axis=1)
            assert np.max(np.abs(m.value_batch(diag) - vals)) <= 1e-12

    def test_refinement_stays_valid(self):
        fam = UtilityFamily("ces", CONE, weight_steps=4, rho_grid=(0.5, 2.0))
        m = fam.members()[3]
        for level in (1, 2):
            for cand in fam.refine_around(m, level):
                assert abs(sum(cand.weights) - 1.0) <= 1e-12

    def test_grid_arrays_and_on_demand_members(self):
        fam = UtilityFamily("ces", CONE, weight_steps=2, rho_grid=(2.0, 0.5))
        grid = fam.members()
        assert grid.rhos == (0.5, 2.0) and grid.rho_of.tolist() == [0, 0, 0, 1, 1, 1]
        assert grid.weights.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]] * 2
        assert grid.params.tolist() == [[m.rho, *m.weights] for m in grid]
        assert grid[-1] == WaldUtility("ces", (0.0, 1.0), 2.0) and grid[1:3] == [grid[1], grid[2]]
        with pytest.raises(IndexError):
            grid[6]
        with pytest.raises(ValueError):
            grid.weights[0, 0] = 0.5

    def test_a_family_grid_past_the_cap_is_refused_before_it_is_built(self):
        # C(3002, 2) = 4,504,501 three-weight compositions, and 1,000,001 two-weight
        # ones under two rhos: both past the cap, so neither may be enumerated
        too_fine = [UtilityFamily("linear", BoxDomain.unit(3), 3000),
                    UtilityFamily("ces", CONE, 1_000_000, (0.5, 2.0))]
        with mock.patch.object(wald_env, "compositions", side_effect=AssertionError("enumerated")):
            for fam, size in zip(too_fine, (4_504_501, 2_000_002)):
                with pytest.raises(EnumerationCapError, match=f"{size} members"):
                    fam.members()

    def test_descriptor_roundtrip(self):
        fam = UtilityFamily("ces", CONE, weight_steps=8, rho_grid=(0.5, 2.0))
        back = UtilityFamily.from_dict(fam.to_dict(), CONE)
        assert back == fam

    def test_lattice_points_inside(self):
        pts = lattice_points(CONE, 20)
        assert np.all(CONE.contains_batch(pts))
        assert len(pts) > 50
        box_pts = lattice_points(BOX, 4)
        assert len(box_pts) == 25

    def test_a_lattice_past_the_cap_is_refused_before_it_is_built(self):
        # 17**5 points fit; 17**6 would take gigabytes before the membership filter
        cone = {d: ConeDomain(0.1, 1.0, d) for d in (5, 6)}
        assert 0 < len(lattice_points(cone[5], 16)) <= wald_env.MAX_LATTICE_POINTS
        with pytest.raises(EnumerationCapError, match="24137569 grid points"):
            lattice_points(cone[6], 16)


def reference_refine_around(family, member, level):
    """The double loop over coordinate pairs that refine_around replaced."""
    h = 1.0 / (family.weight_steps * (2**level))
    weight_opts = [member.weights]
    base = np.asarray(member.weights)
    for i in range(family.dim):
        for j in range(family.dim):
            if i == j:
                continue
            w = base.copy()
            w[i] += h
            w[j] -= h
            if w[j] < -1e-12 or (family.kind == "cobb_douglas" and w[j] <= 0.0):
                continue
            w = np.clip(w, 0.0, 1.0)
            w /= w.sum()
            weight_opts.append(tuple(float(v) for v in w))
    if family.kind != "ces":
        return [WaldUtility(family.kind, w) for w in weight_opts]
    rho_opts = [member.rho]
    grid = sorted(family.rho_grid)
    pos = int(np.argmin([abs(r - member.rho) for r in grid]))
    for nb in (pos - 1, pos + 1):
        if 0 <= nb < len(grid):
            mid = member.rho + (grid[nb] - member.rho) / (2**level)
            if mid != 0.0:
                rho_opts.append(mid)
    return [WaldUtility("ces", w, r) for r in rho_opts for w in weight_opts]


@st.composite
def refine_cases(draw):
    """A family of any kind in 1 to 9 dimensions (int, repeated and negative
    rhos for CES) and a member on its grid, often on an edge of the simplex,
    or between its points as a refinement level leaves one."""
    d = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["linear", "cobb_douglas", "ces"]))
    rhos = ()
    if kind == "ces":
        rhos = tuple(draw(st.lists(st.sampled_from([-2.0, -1, -0.5, 0.5, 1, 2, 3.0]), min_size=1, max_size=4)))
    low = 1 if kind == "cobb_douglas" else 0
    steps = draw(st.integers(max(1, low * d), 12))
    family = UtilityFamily(kind, BoxDomain.unit(d), steps, rhos)
    grid = family.members()
    member = grid[draw(st.integers(0, len(grid) - 1))]
    for level in range(1, draw(st.integers(1, 3))):  # walk off the grid
        refined = family.refine_around(member, level)
        member = refined[draw(st.integers(0, len(refined) - 1))]
    level = draw(st.integers(1, 4))
    if d > 1 and draw(st.booleans()):  # a weight an ulp short of a move: its rounding tolerance and clip
        h = 1.0 / (steps * 2**level)
        w = np.full(d, (1.0 - h) / (d - 1))
        w[draw(st.integers(0, d - 1))] = np.nextafter(h, 0.0)
        member = WaldUtility(kind, tuple(w.tolist()), member.rho)
    return family, member, level


def bits(u):
    return u.kind, np.array(u.weights).tobytes(), None if u.rho is None else float(u.rho)


@settings(max_examples=200, deadline=None)
@given(case=refine_cases())
def test_refine_around_is_the_double_loop_bit_for_bit(case):
    family, member, level = case
    got, want = family.refine_around(member, level), reference_refine_around(family, member, level)
    assert [bits(u) for u in got] == [bits(u) for u in want]
    assert got[0] == member and type(got[0].rho) is type(member.rho)
