"""Domains, Wald utilities, sampling, and Lipschitz validation."""

import numpy as np
import pytest

from recovery_lab import wald_env
from recovery_lab.errors import RejectionCapError, ShapeMismatchError
from recovery_lab.wald_env import (
    BoxDomain,
    ConeDomain,
    UtilityFamily,
    WaldUtility,
    domain_from_dict,
    lattice_points,
    lipschitz_estimate,
    validate_family_kappa,
    wald_check,
)

CONE = ConeDomain(alpha=0.1, M=1.0, d=2)
BOX = BoxDomain.unit(2)


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

    def test_rejection_cap_error(self):
        thin = ConeDomain(alpha=0.7070, M=1.0, d=2)
        with pytest.raises(RejectionCapError):
            thin.sample(np.random.default_rng(3), max_tries=2)

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
                    want = np.array([cone.sample(rng, max_tries=cap) for _ in range(n)])
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


def reference_wald_check(u, domain, n_points, seed=0):
    """The per-point loop the batched check replaced."""
    rng = np.random.default_rng([seed, 2**16])
    max_wald = max_hom = 0.0
    inside = 0
    for _ in range(n_points):
        x = domain.sample(rng)
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
        rep = wald_check(u, domain, 300, seed=7)
        wald, hom, frac = reference_wald_check(u, domain, 300, seed=7)
        assert rep.frac_certainty_in_domain == frac and rep.n_points == 300
        assert abs(rep.max_wald_violation - wald) <= tol
        assert abs(rep.max_homogeneity_violation - hom) <= tol

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_needs_at_least_one_point(self, n_points):
        with pytest.raises(ValueError, match="n_points"):
            wald_check(WaldUtility("linear", (0.3, 0.7)), BOX, n_points)

    def test_linear_on_box_exact(self):
        rep = wald_check(WaldUtility("linear", (0.3, 0.7)), BOX, 200)
        assert rep.max_wald_violation <= 1e-15  # exact identity up to rounding

    def test_ces_on_cone(self):
        rep = wald_check(WaldUtility("ces", (0.5, 0.5), rho=2.0), CONE, 200)
        assert rep.max_wald_violation <= 1e-12
        assert rep.max_homogeneity_violation <= 1e-12

    def test_cobb_douglas_halving(self):
        u = WaldUtility("cobb_douglas", (0.5, 0.5))
        assert u.value((1.0, 4.0)) == pytest.approx(2.0, abs=1e-12)
        assert u.value((0.5, 2.0)) == pytest.approx(1.0, abs=1e-12)


class TestLipschitz:
    def test_linear_recovers_weight_norm(self):
        w = (0.3, 0.7)
        est = lipschitz_estimate(WaldUtility("linear", w), BOX, 0.1)
        assert est == pytest.approx(float(np.linalg.norm(w)), abs=1e-9)

    def test_degenerate_weight(self):
        est = lipschitz_estimate(WaldUtility("linear", (1.0, 0.0)), BOX, 0.25)
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
        est = lipschitz_estimate(u, inner, 0.05)
        assert np.isfinite(est)
        assert est <= 1.01 * oracle
        # this CES utility has constant gradient norm 1/sqrt(2)
        assert est == pytest.approx(1 / np.sqrt(2), abs=0.05)

    def test_family_kappa_validation(self):
        fam = UtilityFamily("linear", BOX, weight_steps=4, kappa=1.0)
        assert validate_family_kappa(fam, grid_step=0.25)
        for m in fam.members():
            assert lipschitz_estimate(m, BOX, 0.25) <= fam.kappa * (1 + 1e-6)


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

    def test_descriptor_roundtrip(self):
        fam = UtilityFamily("ces", CONE, weight_steps=8, rho_grid=(0.5, 2.0), kappa=None)
        back = UtilityFamily.from_dict(fam.to_dict(), CONE)
        assert back == fam

    def test_lattice_points_inside(self):
        pts = lattice_points(CONE, 20)
        assert np.all(CONE.contains_batch(pts))
        assert len(pts) > 50
        box_pts = lattice_points(BOX, 4)
        assert len(box_pts) == 25
