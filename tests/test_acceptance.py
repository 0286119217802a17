"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Every tolerance is pinned here; oracles are local to this module where the
criterion calls for one.  Run with ``pytest -v tests/test_acceptance.py``
(add ``-s`` to see the explicit ACCEPTANCE lines).
"""

import json
import math
import time

import numpy as np
import pytest

from recovery_lab.aa_prefs import (
    AAPreference,
    Act,
    BernoulliIndex,
    CostFunction,
    Prior,
    act_dominates,
    act_value,
    aggregator_eval,
    expected_utility,
    simplex_grid,
)
from recovery_lab.estimation import (
    BoundParams,
    bound_eval,
    mu_estimate,
    separation_estimate,
    vc_lower_bound,
)
from recovery_lab.experiments import (
    run_ce_continuity,
    run_consistency,
    run_dense_uniqueness_check,
    run_nonidentification_demo,
    run_recovery,
    run_theorem2_demo,
)
from recovery_lab.experiments.cli import cli_main
from recovery_lab.lotteries import (
    UNIT,
    DominanceVerdict,
    fosd_compare,
    lottery,
    lottery_join,
    lottery_meet,
)
from recovery_lab.noisy_choice import (
    BoundedResponse,
    ConstantFlip,
    generate_dataset,
    q_eval,
)
from recovery_lab.wald_env import BoxDomain, ConeDomain, UtilityFamily, WaldUtility

CONE = ConeDomain(0.1, 1.0, 2)
BOX = BoxDomain.unit(2)


def announce(cid: str, label: str, ok: bool):
    print(f"ACCEPTANCE {cid} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {cid} failed: {label}"


# -- shared consistency sweep (criteria 8 and 9) ----------------------------

CONSISTENCY_CFG = {
    "version": 1,
    "seed": 0,
    "domain": {"cone": {"alpha": 0.1, "M": 1.0, "d": 2}},
    "family": {"ces": {"rho_grid": [0.5, 1.0, 2.0, 4.0], "weight_steps": 16}},
    "noise": {"bounded_response": {"theta_min": 0.6, "theta_max": 0.9, "tau": 0.5}},
    "true_preference": {"kind": "ces", "weights": [0.4375, 0.5625], "rho": 2.0},
    "n_grid": [100, 400, 1600, 6400],
    "replicates": 20,
    "eval_steps": 16,
}


@pytest.fixture(scope="module")
def consistency_sweep():
    return run_consistency(CONSISTENCY_CFG, threads=4)


# -- oracle helpers ----------------------------------------------------------


def oracle_cdf(p, r):
    return sum(q for x, q in zip(p.support, p.probs) if x <= r)


def oracle_extreme(p, q, op):
    grid = sorted(set(p.support) | set(q.support))
    cdf, masses, prev = [], [], 0.0
    for r in grid:
        c = op(oracle_cdf(p, r), oracle_cdf(q, r))
        masses.append(c - prev)
        prev = c
    return [(x, m) for x, m in zip(grid, masses) if m > 1e-15]


def random_lottery(rng, max_support=5):
    k = rng.integers(1, max_support + 1)
    pts = rng.choice(np.linspace(0, 1, 11), size=k, replace=False)
    w = rng.random(k)
    return lottery(UNIT, pts.tolist(), (w / w.sum()).tolist())


def random_index(rng):
    vals = np.sort(rng.uniform(0.02, 0.98, 2))
    return BernoulliIndex(UNIT, (0.0, 1 / 3, 2 / 3, 1.0), (0.0, *vals.tolist(), 1.0))


def random_pref(rng, n_states=2):
    index = random_index(rng)
    kind = rng.integers(0, 3)
    if kind == 0:
        w = rng.random(n_states)
        return AAPreference.eu(index, Prior(tuple(w / w.sum())))
    if kind == 1:
        priors = []
        for _ in range(int(rng.integers(1, 4))):
            w = rng.random(n_states)
            priors.append(Prior(tuple(w / w.sum())))
        return AAPreference.maxmin(index, priors)
    grid = simplex_grid(n_states, 8)
    costs = rng.uniform(0.0, 0.5, len(grid))
    costs[rng.integers(0, len(grid))] = 0.0
    return AAPreference.variational(index, CostFunction(tuple(grid), tuple(costs)))


# -- criteria ----------------------------------------------------------------


def test_c01_fosd_lattice_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        p, q, r = (random_lottery(rng) for _ in range(3))
        for op, fn in ((min, lottery_join), (max, lottery_meet)):
            got = fn(p, q)
            want = oracle_extreme(p, q, op)
            ok &= list(got.support) == [x for x, _ in want]
            ok &= all(
                abs(a - b) <= 1e-12 for a, b in zip(got.probs, (m for _, m in want))
            )
        # lattice laws, exact under the module's CDF-equality notion
        eq = lambda a, b: fosd_compare(a, b) is DominanceVerdict.EQUAL
        ok &= eq(lottery_join(p, q), lottery_join(q, p))
        ok &= eq(lottery_meet(p, q), lottery_meet(q, p))
        ok &= eq(lottery_join(p, lottery_join(q, r)), lottery_join(lottery_join(p, q), r))
        ok &= eq(lottery_meet(p, lottery_meet(q, r)), lottery_meet(lottery_meet(p, q), r))
        ok &= eq(lottery_join(p, lottery_meet(p, q)), p)
        ok &= eq(lottery_meet(p, lottery_join(p, q)), p)
    elapsed = time.perf_counter() - start
    announce("01", "fosd lattice oracle equivalence", ok and elapsed < 5.0)


def test_c02_standard_representation_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        pref = random_pref(rng)
        p = random_lottery(rng)
        gap = abs(
            act_value(pref, Act.constant(p, 2)) - expected_utility(pref.index, p)
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    announce(
        "02",
        f"standard representation identity (worst gap {worst:.2e})",
        worst <= 1e-9 and elapsed < 5.0,
    )


def test_c03_aggregator_normalization():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(60):
        pref = random_pref(rng)
        for t in (0.0, 0.25, 0.5, 1.0):
            worst = max(worst, abs(aggregator_eval(pref, (t, t)) - t))
    announce("03", f"aggregator normalization (worst {worst:.2e})", worst <= 1e-9)


def test_c04_monotonicity_suite():
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(1000):
        pref = random_pref(rng)
        g = Act((random_lottery(rng), random_lottery(rng)))
        f = Act(
            tuple(lottery_join(p, random_lottery(rng)) for p in g.per_state)
        )
        assert act_dominates(f, g).weakly_dominates
        if act_value(pref, f) < act_value(pref, g) - 1e-12:
            violations += 1
    families = [
        WaldUtility("linear", (0.3, 0.7)),
        WaldUtility("ces", (0.5, 0.5), rho=2.0),
        WaldUtility("ces", (0.4, 0.6), rho=-1.0),
        WaldUtility("cobb_douglas", (0.25, 0.75)),
    ]
    for _ in range(1000):
        y = rng.uniform(0.01, 0.7, size=2)
        x = y + rng.uniform(0.0, 0.3, size=2)
        for u in families:
            if u.value(x) < u.value(y) - 1e-12:
                violations += 1
    announce("04", f"monotonicity suite ({violations} violations)", violations == 0)


def test_c05_noise_model_contract():
    rng = np.random.default_rng(105)
    u = WaldUtility("linear", (0.3, 0.7))
    ok = True
    for noise in (ConstantFlip(0.75), BoundedResponse(0.6, 0.9, 0.5)):
        for _ in range(1000):
            x, y = BOX.sample(rng), BOX.sample(rng)
            ok &= q_eval(noise, u, x, y) + q_eval(noise, u, y, x) == 1.0
            if u.value(x) > u.value(y):
                ok &= q_eval(noise, u, x, y) >= noise.floor > 0.5
    n, theta = 100_000, 0.75
    ds = generate_dataset(BOX, u, ConstantFlip(theta), n, seed=105)
    freq = float(
        np.mean(u.value_batch(ds.chosen) > u.value_batch(ds.rejected))
    )
    sigma = math.sqrt(theta * (1 - theta) / n)
    ok &= abs(freq - theta) <= 3 * sigma
    announce("05", f"noise model contract (freq {freq:.4f})", ok)


def test_c06_key_identification():
    start = time.perf_counter()
    family = UtilityFamily("ces", CONE, weight_steps=8, rho_grid=(0.5, 2.0))
    members = family.members()
    rng = np.random.default_rng(106)
    ok = True
    for t in range(10):
        i, j = rng.choice(len(members), size=2, replace=False)
        gap, se, r = separation_estimate(
            members[i], members[j], ConstantFlip(0.75), CONE, 200_000, seed=1060 + t
        )
        ok &= gap - 3 * se > 0
    elapsed = time.perf_counter() - start
    announce("06", f"key identification ({elapsed:.1f}s)", ok and elapsed < 120.0)


def test_c07_analytic_mu_check():
    u = WaldUtility("ces", (0.5, 0.5), rho=2.0)
    ok = True
    for theta in (0.6, 0.75, 0.9):
        est, se = mu_estimate(u, u, ConstantFlip(theta), CONE, 100_000, seed=107)
        ok &= abs(est - theta / 2) <= 3 * se
    announce("07", "own-accuracy equals theta/2", ok)


def test_c08_consistency_sweep(consistency_sweep):
    cells = consistency_sweep.report.cells
    meds = [c["q50"] for c in cells]
    decreasing = all(a >= b for a, b in zip(meds, meds[1:]))
    halved = meds[-1] <= 0.5 * meds[0]
    announce(
        "08",
        f"consistency sweep medians {['%.3f' % m for m in meds]}",
        decreasing and halved,
    )


def test_c09_bound_shape(consistency_sweep):
    cells = consistency_sweep.report.cells
    ok = all(c["coverage"] >= 0.95 for c in cells if c["cell"] != 100)
    announce(
        "09",
        "bound covers >=95% of replicates at larger n (shape test, fitted constants)",
        ok,
    )


def test_c10_bound_eval_regression():
    bp = BoundParams(K=1.0, C_bar=1.0, V=3, D=2, delta=0.1)
    val = bound_eval(bp, 100)
    announce("10", f"bound_eval regression ({val:.5f})", abs(val - 0.62274) <= 1e-4)


def test_c11_representation_convergence():
    start = time.perf_counter()
    out = run_theorem2_demo({"version": 1, "kind": "all", "k_max": 12})
    ok = True
    for name, (_, vals) in out.series.items():
        ok &= all(a > b for a, b in zip(vals, vals[1:]))
        ok &= vals[-1] <= 1e-3
    elapsed = time.perf_counter() - start
    announce("11", "du, dv, dh strictly decreasing to 1e-3", ok and elapsed < 60.0)


def test_c12_ce_continuity():
    out = run_ce_continuity({"version": 1, "k_max": 12})
    _, gaps = out.series["|ce_k - ce|"]
    ok = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 1e-3
    announce("12", "certainty-equivalent continuity", ok)


def test_c13_nonidentification_demo():
    out = run_nonidentification_demo({"version": 1, "k_max": 50, "m": 4000, "seed": 13})
    _, flips = out.series["disagreement"]
    _, dists = out.series["distance to constant"]
    ok = all(f == 0.0 for f in flips) and dists[0] / dists[49] >= 5.0
    announce("13", "representation drift with zero choice drift", ok)


RECOVERY_CFGS = {
    "1-state": {
        "version": 1,
        "seed": 0,
        "states": 1,
        "truncation": {"denominator_bound": 4, "grid_count": 4},
        "k_grid": [10, 50, 150, 300, 500],
        "replicates": 3,
        "candidates": {
            "eu_grid": {"states": 1, "knot_positions": [1 / 3, 2 / 3], "value_steps": 24}
        },
        "true_index": 120,
        "disagreement_m": 4000,
    },
    "2-state": {
        "version": 1,
        "seed": 0,
        "states": 2,
        "truncation": {"denominator_bound": 2, "grid_count": 3},
        "k_grid": [10, 50, 150, 300, 500],
        "replicates": 3,
        "candidates": {
            "eu_grid": {"states": 2, "prior_steps": 20, "knot_positions": [0.5], "value_steps": 20}
        },
        "true_index": 199,
        "disagreement_m": 4000,
    },
}


def test_c14_recovery_sweep():
    start = time.perf_counter()
    ok = True
    for label, cfg in RECOVERY_CFGS.items():
        from recovery_lab.experiments import grid_from_config
        from recovery_lab.lotteries import UNIT as unit

        assert len(grid_from_config(cfg["candidates"], unit)) >= 200
        out = run_recovery(cfg, threads=3)
        by_rep = {}
        for k, rep, surv, d, dv, du in out.csv_rows:
            by_rep.setdefault(rep, {})[k] = (surv, d)
        for rep, cells in by_rep.items():
            counts = [cells[k][0] for k in sorted(cells)]
            ok &= all(a >= b for a, b in zip(counts, counts[1:]))  # exact nesting
            ok &= all(c >= 1 for c in counts)  # the truth always survives
            d10, dfinal = cells[10][1], cells[500][1]
            ok &= dfinal <= 0.2 * d10
    elapsed = time.perf_counter() - start
    announce("14", f"recovery sweep ({elapsed:.1f}s)", ok and elapsed < 300.0)


def test_c15_dense_uniqueness():
    cfg = {
        "version": 1,
        "states": 2,
        "candidates": {
            "eu_grid": {"states": 2, "prior_steps": 4, "knot_positions": [0.5], "value_steps": 4}
        },
        "schedule": [[1, 2], [2, 3], [4, 5], [8, 5]],
    }
    out = run_dense_uniqueness_check(cfg)
    unseparated = sum(1 for _, _, level in out.csv_rows if level < 0)
    announce(
        "15",
        f"every distinct member pair separated ({len(out.csv_rows)} pairs)",
        unseparated == 0,
    )


def test_c16_vc_witnesses():
    singleton = UtilityFamily("cobb_douglas", BOX, weight_steps=2)
    assert len(singleton.members()) == 1
    zero = vc_lower_bound(singleton, BOX, k=2, trials=20, seed=116)
    fam = UtilityFamily("linear", BOX, weight_steps=2)
    witness = [
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        (np.array([0.5, 0.0]), np.array([0.0, 0.5])),
    ]
    two = vc_lower_bound(fam, BOX, k=2, trials=5, seed=116, proposals=[witness])
    # independent exhaustive confirmation over all four labelings
    confirmed = True
    for labeling in range(4):
        realizable = False
        for m in fam.members():
            realized = all(
                (m.value(y) >= m.value(x)) if (labeling >> j) & 1 else (m.value(x) >= m.value(y))
                for j, (x, y) in enumerate(witness)
            )
            realizable = realizable or realized
        confirmed &= realizable
    announce("16", f"vc witnesses (singleton {zero}, linear {two})", zero == 0 and two >= 2 and confirmed)


CLI_CONFIGS = {
    "bound": {
        "version": 1, "K": 1.0, "C_bar": 1.0, "V": 3, "D": 2, "delta": 0.1,
        "n_grid": [100, 400, 1600],
    },
    "gen": {
        "version": 1, "seed": 3, "n": 40,
        "domain": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
        "noise": {"constant_flip": {"theta": 0.8}},
        "preference": {"kind": "linear", "weights": [0.25, 0.75]},
    },
    "consistency": {
        "version": 1, "seed": 0,
        "domain": {"cone": {"alpha": 0.1, "M": 1.0, "d": 2}},
        "family": {"ces": {"rho_grid": [0.5, 2.0], "weight_steps": 4}},
        "noise": {"constant_flip": {"theta": 0.8}},
        "true_preference": {"kind": "ces", "weights": [0.5, 0.5], "rho": 2.0},
        "n_grid": [40, 80], "replicates": 2, "eval_steps": 8, "vc_dimension": 2,
    },
    "recovery": {
        "version": 1, "seed": 0, "states": 1,
        "truncation": {"denominator_bound": 2, "grid_count": 3},
        "k_grid": [5, 15], "replicates": 2,
        "candidates": {"eu_grid": {"states": 1, "knot_positions": [0.5], "value_steps": 12}},
        "true_index": 5, "disagreement_m": 500,
    },
    "theorem2": {"version": 1, "kind": "all", "k_max": 4},
    "ce-continuity": {"version": 1, "k_max": 4},
    "nonid": {"version": 1, "seed": 5, "k_max": 10, "m": 500},
    "separation": {
        "version": 1, "seed": 0,
        "domain": {"cone": {"alpha": 0.1, "M": 1.0, "d": 2}},
        "family": {"ces": {"rho_grid": [0.5, 2.0], "weight_steps": 4}},
        "noise": {"constant_flip": {"theta": 0.75}},
        "n_pairs": 3, "m": 2000,
    },
    "vc": {
        "version": 1, "seed": 0,
        "domain": {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
        "family": {"linear": {"weight_steps": 2}},
        "k": 2, "trials": 3,
        "proposals": [[[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]]],
    },
    "uniqueness": {
        "version": 1, "states": 2,
        "candidates": {"eu_grid": {"states": 2, "prior_steps": 1, "knot_positions": [0.5], "value_steps": 2}},
        "schedule": [[1, 2], [2, 3]],
    },
}


def test_c17_cli_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    ok = True
    # gen once so the fit subcommand has a stable dataset to read
    gen_cfg_path = tmp_path / "gen-for-fit.json"
    gen_cfg_path.write_text(json.dumps(CLI_CONFIGS["gen"]))
    assert cli_main(["gen", "--config", str(gen_cfg_path), "--out", str(tmp_path / "ds")]) == 0
    fit_cfg = {
        "version": 1,
        "dataset": str(tmp_path / "ds" / "dataset.jsonl"),
        "family": {"linear": {"weight_steps": 8}},
    }
    configs = dict(CLI_CONFIGS)
    configs["fit"] = fit_cfg
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = {}
        for threads in (1, 8):
            monkeypatch.setenv("RECOVERY_LAB_THREADS", str(threads))
            for run in ("a", "b"):
                out_dir = tmp_path / f"{command}-t{threads}-{run}"
                code = cli_main(
                    [command, "--config", str(cfg_path), "--out", str(out_dir)]
                )
                assert code == 0, (command, code)
                blob = {}
                for f in sorted(out_dir.iterdir()):
                    if f.suffix in (".json", ".csv", ".jsonl", ".svg"):
                        blob[f.name] = f.read_bytes()
                outputs[(threads, run)] = blob
        first = outputs[(1, "a")]
        ok &= all(first == other for other in outputs.values())
        assert ok, f"{command} outputs differ across reruns or thread counts"
    monkeypatch.delenv("RECOVERY_LAB_THREADS")
    elapsed = time.perf_counter() - start
    announce("17", f"cli determinism across reruns and thread counts ({elapsed:.1f}s)", ok)
