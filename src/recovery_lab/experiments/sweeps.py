"""The experiment sweeps behind each CLI subcommand.

Each run_* function consumes a validated config dict and produces a
SweepOutput (report + CSV rows + chart series).  Replicates and sweep
cells are pure functions of derived seeds, executed in a deterministic
order, so outputs do not depend on the worker thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..aa_prefs import (
    AAPreference,
    Act,
    BernoulliIndex,
    CostFunction,
    Prior,
    aggregator_distance,
    ce_act,
    index_distance,
    rep_distance,
    simplex_grid,
)
from ..estimation import (
    BoundParams,
    bound_eval,
    erm_fit,
    rho,
    separation_exponent_check,
    vc_lower_bound,
)
from ..errors import ConfigError
from ..lotteries import UNIT, Interval, lottery
from ..noisy_choice import (
    dataset_text,
    generate_dataset,
    noise_from_dict,
    read_dataset,
)
from ..wald_env import (
    LINEAR,
    BoxDomain,
    ConeDomain,
    UtilityFamily,
    WaldUtility,
    domain_from_dict,
    lattice_points,
)
from .prefgrids import grid_from_config
from .report import STANDARD_NOTES, RunReport, SweepOutput, quantile_stats
from .sigma import VALUE_TIE_TOL, build_sigma, universe_values

THREADS_ENV = "RECOVERY_LAB_THREADS"


def resolve_threads(flag_value: int | None) -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    return max(1, flag_value or 1)


def parallel_map(fn, items, threads: int):
    """Order-preserving map; results are invariant to the thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _interval(cfg: dict) -> Interval:
    lo, hi = cfg.get("interval", (0.0, 1.0))
    return Interval(float(lo), float(hi))


def _count(cfg: dict, field: str, default=None, minimum: int = 0) -> int:
    """cfg[field], or default when absent, as an integer >= minimum."""
    value = cfg.get(field, default)
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = None
    if count is None or count < minimum:
        raise ConfigError(f"{field} must be an integer >= {minimum}, got {value!r}")
    return count


def _parsed(field: str, build, spec, *args):
    """build(spec, *args), with a malformed descriptor a ConfigError naming the field."""
    try:
        return build(spec, *args)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{field}: bad descriptor {spec!r}: {exc!r}") from None


def _default_exponent(domain) -> int:
    # homothetic cone environments double the dimension exponent
    return 2 * domain.dim if isinstance(domain, ConeDomain) else domain.dim


def _header(extra_notes: list[str]) -> dict:
    return {"notes": [*STANDARD_NOTES, *extra_notes]}


# ---------------------------------------------------------------------------
# gen / fit
# ---------------------------------------------------------------------------


def run_gen(cfg: dict) -> SweepOutput:
    domain = _parsed("domain", domain_from_dict, cfg["domain"])
    noise = _parsed("noise", noise_from_dict, cfg["noise"])
    pref = _parsed("preference", WaldUtility.from_dict, cfg["preference"])
    if pref.dim != domain.dim:
        raise ConfigError(f"preference has dimension {pref.dim} but the domain {domain.dim}")
    if pref.kind != LINEAR and isinstance(domain, BoxDomain) and min(domain.lo) < 0:
        raise ConfigError(
            f"preference: {pref.kind} needs nonnegative bundles, box lo is {list(domain.lo)}"
        )
    seed = int(cfg.get("seed", 0))
    n = _count(cfg, "n")
    ds = generate_dataset(domain, pref, noise, n, seed)
    report = RunReport(
        command="gen",
        config=cfg,
        seeds={"seed": seed},
        header=_header(["record i draws from the counter stream (seed, i)"]),
        cells=[{"cell": "dataset", "n": n}],
    )
    return SweepOutput(
        report,
        csv_header="",
        csv_rows=[],
        extra_files={"dataset.jsonl": dataset_text(ds)},
    )


def run_fit(cfg: dict) -> SweepOutput:
    from .. import _jsonio

    refinements = _count(cfg, "refinements", 2)
    ds = read_dataset(cfg["dataset"])
    spec = cfg.get("domain") or ds.meta.get("domain")
    if spec is None:
        raise ConfigError("domain is missing: the dataset's meta line has none; set it in the config")
    domain = _parsed("domain", domain_from_dict, spec)
    family = _parsed("family", UtilityFamily.from_dict, cfg["family"], domain)
    result = erm_fit(family, ds, refinements=refinements)
    report = RunReport(
        command="fit",
        config=cfg,
        seeds={},
        header=_header(["ties break toward the lexicographically smallest parameters"]),
        cells=[
            {
                "cell": "fit",
                "score": result.score,
                "ties": result.ties,
                "n": result.n,
                "grid_size": result.search_log["grid_size"],
            }
        ],
    )
    return SweepOutput(
        report,
        csv_header="",
        csv_rows=[],
        extra_files={"fit.json": _jsonio.dumps(result.to_dict()) + "\n"},
    )


# ---------------------------------------------------------------------------
# consistency (noisy estimation sweep)
# ---------------------------------------------------------------------------


def run_consistency(cfg: dict, threads: int = 1) -> SweepOutput:
    domain = domain_from_dict(cfg["domain"])
    family = UtilityFamily.from_dict(cfg["family"], domain)
    noise = noise_from_dict(cfg["noise"])
    u_true = WaldUtility.from_dict(cfg["true_preference"])
    seed = int(cfg.get("seed", 0))
    n_grid = sorted(int(n) for n in cfg["n_grid"])
    replicates = int(cfg.get("replicates", 5))
    eval_grid = lattice_points(domain, int(cfg.get("eval_steps", 16)))
    delta = float(cfg.get("delta", 0.1))
    exponent = int(cfg.get("exponent_d", _default_exponent(domain)))
    if "vc_dimension" in cfg:
        vc = int(cfg["vc_dimension"])
    else:
        vc = vc_lower_bound(
            family, domain, k=int(cfg.get("vc_k", 2)), trials=int(cfg.get("vc_trials", 10)),
            seed=seed,
        )
    vc = max(vc, 1)

    def one_cell(cell):
        n, rep = cell
        ds = generate_dataset(domain, u_true, noise, n, [seed, n, rep])
        fit = erm_fit(family, ds)
        return n, rep, rho(fit.best, u_true, eval_grid), fit.score

    cells_in = [(n, rep) for n in n_grid for rep in range(replicates)]
    rows = parallel_map(one_cell, cells_in, threads)

    by_n: dict[int, list[float]] = {n: [] for n in n_grid}
    for n, rep, r, s in rows:
        by_n[n].append(r)
    # bound constants: K pinned to 1, C_bar fitted to cover the smallest cell
    g_min = bound_eval(BoundParams(1.0, 1.0, vc, exponent, delta), n_grid[0])
    worst = max(by_n[n_grid[0]])
    c_bar = worst / g_min if worst > 0 else 1e-9
    bp = BoundParams(1.0, max(c_bar, 1e-9), vc, exponent, delta)
    csv_rows = [
        [n, rep, r, s, bound_eval(bp, n)] for n, rep, r, s in rows
    ]
    cells = []
    for n in n_grid:
        stats = quantile_stats(by_n[n])
        bound_n = bound_eval(bp, n)
        stats.update(
            {
                "cell": n,
                "bound": bound_n,
                "coverage": float(np.mean([r <= bound_n for r in by_n[n]])),
            }
        )
        cells.append(stats)
    report = RunReport(
        command="consistency",
        config=cfg,
        seeds={"seed": seed, "cell_seed_rule": "[seed, n, replicate]"},
        header=_header(
            [
                f"bound constants fitted on the smallest cell: K=1, C_bar={c_bar!r}",
                f"vc_lower_bound={vc}, exponent D={exponent} "
                "(stated separation exponents differ between the d and 2d forms; "
                "D follows the environment default and is configurable)",
            ]
        ),
        cells=cells,
    )
    return SweepOutput(
        report,
        csv_header="n,replicate,rho,score,bound",
        csv_rows=csv_rows,
        series={
            "median rho": ([float(n) for n in n_grid], [quantile_stats(by_n[n])["q50"] for n in n_grid]),
            "bound": ([float(n) for n in n_grid], [bound_eval(bp, n) for n in n_grid]),
        },
        chart_title="estimation error vs sample size",
        x_label="n",
        y_label="rho",
    )


# ---------------------------------------------------------------------------
# recovery (noiseless finite experiments)
# ---------------------------------------------------------------------------


def _truncation(field: str, denominator_bound, grid_count) -> tuple[int, int]:
    """One truncation level's (denominator_bound, grid_count), checked."""
    den, gc = int(denominator_bound), int(grid_count)
    if den < 1 or gc < 2:
        raise ConfigError(
            f"{field} needs denominator_bound >= 1 and grid_count >= 2, got {den} and {gc}"
        )
    return den, gc


def _candidates(cfg: dict, interval: Interval, states: int) -> list[AAPreference]:
    """The config's candidate grid: nonempty, over the config's states."""
    grid = grid_from_config(cfg["candidates"], interval)
    if not grid:
        raise ConfigError("candidates: the grid is empty")
    if grid[0].states.n_states != states:
        raise ConfigError(
            f"candidates: the grid has {grid[0].states.n_states} states but states is {states}"
        )
    return grid


def _codes(d: np.ndarray) -> np.ndarray:
    """Choice codes of value differences: 0 tie, 1 first act, 2 second act."""
    return np.where(np.abs(d) <= VALUE_TIE_TOL, 0, np.where(d > 0, 1, 2))


def run_recovery(cfg: dict, threads: int = 1) -> SweepOutput:
    interval = _interval(cfg)
    states = _count(cfg, "states", minimum=1)
    trunc = cfg["truncation"]
    den, gc = _truncation("truncation", trunc["denominator_bound"], trunc["grid_count"])
    k_grid = sorted(int(k) for k in cfg["k_grid"])
    if not k_grid or k_grid[0] < 0:
        raise ConfigError(f"k_grid must list non-negative pair counts, got {k_grid}")
    replicates = _count(cfg, "replicates", 3, minimum=1)
    seed = int(cfg.get("seed", 0))
    dis_m = _count(cfg, "disagreement_m", 4000, minimum=1)
    candidates = _candidates(cfg, interval, states)
    true_index = int(cfg["true_index"])
    if not 0 <= true_index < len(candidates):
        raise ConfigError(
            f"true_index must lie in [0, {len(candidates)}), the candidate grid, got {true_index}"
        )
    true = candidates[true_index]

    m_universe = build_sigma(states, interval, den, gc, k=1).universe_size

    def one_replicate(rep: int):
        perm = np.random.default_rng([seed, rep]).permutation(m_universe)
        sig = build_sigma(
            states,
            interval,
            den,
            gc,
            k=max(k_grid[-1], 1),  # a k=0 cell is a vacuous constraint
            permutation=perm,
        )
        values = universe_values(candidates, sig)
        v_true = values[true_index]
        pairs = np.asarray(sig.pairs)
        rng2 = np.random.default_rng([seed, rep, 1])
        ii = rng2.integers(0, m_universe, dis_m)
        jj = rng2.integers(0, m_universe, dis_m)
        # Survivors nest as k grows, so each cell codes only its new pairs and
        # only the rows still alive, and the per-row statistics are computed
        # once, for the rows alive at the first cell.
        alive = np.arange(len(candidates))
        worst = None  # (disagreement, dv, du) per candidate row
        out = []
        prev = 0
        for k in k_grid:
            pi, pj = pairs[prev:k].T
            cand = _codes(values[np.ix_(alive, pi)] - values[np.ix_(alive, pj)])
            alive = alive[np.all(cand == _codes(v_true[pi] - v_true[pj]), axis=1)]
            prev = k
            if len(alive) == 0:
                out.append((k, rep, 0, math.nan, math.nan, math.nan, True))
                continue
            if worst is None:
                d_true = v_true[ii] - v_true[jj]
                d_all = values[np.ix_(alive, ii)] - values[np.ix_(alive, jj)]
                worst = np.empty((3, len(candidates)))
                worst[0, alive] = np.mean(
                    ((d_all > 0) & (d_true < 0)) | ((d_all < 0) & (d_true > 0)), axis=1
                )
                worst[1, alive] = np.max(np.abs(values[alive] - v_true), axis=1)
                worst[2, alive] = [index_distance(candidates[r].index, true.index) for r in alive]
            d, dv, du = worst[:, alive].max(axis=1).tolist()
            out.append((k, rep, len(alive), d, dv, du, False))
        return out

    all_rows = [
        row
        for rep_rows in parallel_map(one_replicate, range(replicates), threads)
        for row in rep_rows
    ]
    csv_rows = [
        [k, rep, n_alive, "", "", ""] if flag else [k, rep, n_alive, d, dv, du]
        for (k, rep, n_alive, d, dv, du, flag) in all_rows
    ]
    cells = []
    for k in k_grid:
        sub = [r for r in all_rows if r[0] == k]
        stats = quantile_stats([r[3] for r in sub if not r[6]])
        cells.append(
            {
                "cell": k,
                "replicates": replicates,
                "survivors_q50": float(np.median([r[2] for r in sub])),
                "empty_cells": sum(1 for r in sub if r[6]),
                **stats,
            }
        )
    med_series = [c.get("q50", 0.0) for c in cells]
    report = RunReport(
        command="recovery",
        config=cfg,
        seeds={"seed": seed, "replicate_rule": "universe permuted by [seed, replicate]"},
        header=_header(
            [
                "choices are noiseless; replicates perturb only the enumeration order",
                "disagreement sampled uniformly from the truncation-level universe",
            ]
        ),
        cells=cells,
    )
    return SweepOutput(
        report,
        csv_header="k,replicate,survivors,max_disagreement,max_dv,max_du",
        csv_rows=csv_rows,
        series={"median worst disagreement": ([float(k) for k in k_grid], med_series)},
        chart_title="worst surviving rationalizer vs experiment size",
        x_label="k",
        y_label="disagreement",
    )


# ---------------------------------------------------------------------------
# representation convergence and certainty-equivalent continuity
# ---------------------------------------------------------------------------


def _index_at(eps: float) -> BernoulliIndex:
    return BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.6 + 0.25 * eps, 1.0))


def _sequence_family(kind: str):
    """pref_at(eps): the target at eps=0, approximants at eps = 2**-k."""
    if kind == "eu":

        def pref_at(eps: float) -> AAPreference:
            return AAPreference.eu(
                _index_at(eps), Prior((0.4 + 0.2 * eps, 0.6 - 0.2 * eps))
            )

    elif kind == "maxmin":

        def pref_at(eps: float) -> AAPreference:
            return AAPreference.maxmin(
                _index_at(eps),
                [
                    Prior((0.2 + 0.15 * eps, 0.8 - 0.15 * eps)),
                    Prior((0.8 - 0.1 * eps, 0.2 + 0.1 * eps)),
                ],
            )

    elif kind == "variational":
        grid = tuple(simplex_grid(2, 4))
        base = [(p.weights[0] - 0.5) ** 2 for p in grid]
        bump = next(i for i, p in enumerate(grid) if p.weights[0] == 1.0)

        def pref_at(eps: float) -> AAPreference:
            costs = list(base)
            costs[bump] += 0.05 * eps
            return AAPreference.variational(_index_at(eps), CostFunction(grid, tuple(costs)))

    else:
        raise ConfigError(f"kind: unknown sequence kind {kind!r}; use eu, maxmin or variational")
    return pref_at


def run_theorem2_demo(cfg: dict) -> SweepOutput:
    kinds = ["eu", "maxmin", "variational"] if cfg.get("kind", "all") == "all" else [cfg["kind"]]
    k_max = int(cfg.get("k_max", 12))
    trunc = cfg.get("act_truncation", {"denominator_bound": 2, "grid_count": 3})
    z_steps = int(cfg.get("z_steps", 8))
    den, gc = _truncation("act_truncation", trunc["denominator_bound"], trunc["grid_count"])
    grid = list(build_sigma(2, UNIT, den, gc, k=1).universe)
    csv_rows = []
    cells = []
    series = {}
    for kind in kinds:
        pref_at = _sequence_family(kind)
        target = pref_at(0.0)
        dus, dvs, dhs = [], [], []
        for k in range(k_max + 1):
            pref_k = pref_at(2.0**-k)
            dv, du = rep_distance(pref_k, target, grid)
            dh = aggregator_distance(pref_k, target, z_steps)
            csv_rows.append([kind, k, du, dv, dh])
            cells.append({"cell": f"{kind}:{k:02d}", "du": du, "dv": dv, "dh": dh})
            dus.append(du), dvs.append(dv), dhs.append(dh)
        ks = [float(k) for k in range(k_max + 1)]
        series[f"{kind} du"] = (ks, dus)
        series[f"{kind} dv"] = (ks, dvs)
        series[f"{kind} dh"] = (ks, dhs)
    report = RunReport(
        command="theorem2",
        config=cfg,
        seeds={},
        header=_header(
            [
                "parameter sequences approach the target geometrically (ratio 1/2)",
                f"dv evaluated on the {len(grid)}-act universe; dh on the "
                f"{{0..1}}^S lattice with step 1/{z_steps}",
            ]
        ),
        cells=cells,
    )
    return SweepOutput(
        report,
        csv_header="kind,k,du,dv,dh",
        csv_rows=csv_rows,
        series=series,
        chart_title="representation distances along converging preferences",
        x_label="k",
        y_label="sup distance",
    )


def run_ce_continuity(cfg: dict) -> SweepOutput:
    k_max = int(cfg.get("k_max", 12))
    pref_at = _sequence_family(cfg.get("kind", "eu"))
    target = pref_at(0.0)

    def lottery_at(eps: float):
        return lottery(UNIT, [0.0, 1.0], [0.3 + 0.2 * eps, 0.7 - 0.2 * eps])

    ce_target = ce_act(target, Act.constant(lottery_at(0.0), 2))
    csv_rows = []
    gaps = []
    for k in range(k_max + 1):
        eps = 2.0**-k
        ce_k = ce_act(pref_at(eps), Act.constant(lottery_at(eps), 2))
        gap = abs(ce_k - ce_target)
        csv_rows.append([k, ce_k, gap])
        gaps.append(gap)
    cells = [{"cell": k, "ce_gap": g} for k, g in enumerate(gaps)]
    report = RunReport(
        command="ce-continuity",
        config=cfg,
        seeds={},
        header=_header(["certainty equivalents inverted by bisection on the index"]),
        cells=cells,
    )
    return SweepOutput(
        report,
        csv_header="k,ce,gap",
        csv_rows=csv_rows,
        series={"|ce_k - ce|": ([float(k) for k in range(k_max + 1)], gaps)},
        chart_title="certainty-equivalent continuity",
        x_label="k",
        y_label="gap",
    )


# ---------------------------------------------------------------------------
# non-identification demonstration
# ---------------------------------------------------------------------------


def run_nonidentification_demo(cfg: dict) -> SweepOutput:
    prize_values = np.asarray(cfg.get("prize_values", (0.0, 0.4, 1.0)), dtype=float)
    state_prior = np.asarray(cfg.get("state_prior", (0.35, 0.65)), dtype=float)
    k_max = int(cfg.get("k_max", 50))
    m = int(cfg.get("m", 4000))
    seed = int(cfg.get("seed", 0))
    n = len(prize_values)
    s = float(prize_values.sum())
    norm2 = float(prize_values @ prize_values)
    n_states = len(state_prior)

    csv_rows = []
    cells = []
    disagreements, dists = [], []
    for k in range(1, k_max + 1):
        # scalar quadratic: || beta*1 + v/k ||^2 = 1
        disc = (s / k) ** 2 - n * (norm2 / k**2 - 1.0)
        beta = (-s / k + math.sqrt(disc)) / n
        vk = beta + prize_values / k
        rng = np.random.default_rng([seed, k])
        f1 = rng.dirichlet(np.ones(n), size=(m, n_states))
        f2 = rng.dirichlet(np.ones(n), size=(m, n_states))
        u1 = (f1 @ prize_values) @ state_prior
        u2 = (f2 @ prize_values) @ state_prior
        w1 = (f1 @ vk) @ state_prior
        w2 = (f2 @ vk) @ state_prior
        flip = float(
            np.mean(((u1 > u2) & (w1 < w2)) | ((u1 < u2) & (w1 > w2)))
        )
        dist_const = float(np.linalg.norm(vk - vk.mean()))
        csv_rows.append([k, flip, dist_const, beta])
        cells.append(
            {"cell": k, "disagreement": flip, "distance_to_constant": dist_const}
        )
        disagreements.append(flip)
        dists.append(dist_const)
    report = RunReport(
        command="nonid",
        config=cfg,
        seeds={"seed": seed},
        header=_header(
            [
                "fixed preference; renormalized representations drift toward a "
                "constant function while choices never change",
                f"finite prize set of size {n}",
            ]
        ),
        cells=cells,
    )
    ks = [float(k) for k in range(1, k_max + 1)]
    return SweepOutput(
        report,
        csv_header="k,disagreement,distance_to_constant,beta",
        csv_rows=csv_rows,
        series={
            "disagreement": (ks, disagreements),
            "distance to constant": (ks, dists),
        },
        chart_title="representation drift without preference drift",
        x_label="k",
        y_label="value",
    )


# ---------------------------------------------------------------------------
# dense-restriction uniqueness check
# ---------------------------------------------------------------------------


def _has_strict_inversion(va: np.ndarray, vb: np.ndarray, tol: float = VALUE_TIE_TOL) -> bool:
    """Is there a pair (i, j) with va[i] > va[j] + tol and vb[i] < vb[j] - tol?"""
    order = np.argsort(va, kind="stable")
    sa, sb = va[order], vb[order]
    prefix_max = np.maximum.accumulate(sb)
    # for each position, the largest index with value strictly below sa[t] - tol
    cut = np.searchsorted(sa, sa - tol, side="left") - 1
    ok = cut >= 0
    return bool(np.any(ok & (np.where(ok, prefix_max[np.maximum(cut, 0)], -np.inf) > sb + tol)))


def run_dense_uniqueness_check(cfg: dict) -> SweepOutput:
    interval = _interval(cfg)
    states = _count(cfg, "states", minimum=1)
    members = _candidates(cfg, interval, states)
    schedule = [_truncation(f"schedule[{i}]", d, g) for i, (d, g) in enumerate(cfg["schedule"])]
    pairs = [(i, j) for i in range(len(members)) for j in range(i + 1, len(members))]
    level_found = {p: -1 for p in pairs}
    for level, (den, gc) in enumerate(schedule):
        open_pairs = [p for p in pairs if level_found[p] < 0]
        if not open_pairs:
            break
        sig = build_sigma(states, interval, den, gc, k=1)
        values = universe_values(members, sig)
        for i, j in open_pairs:
            if _has_strict_inversion(values[i], values[j]):
                level_found[(i, j)] = level
    csv_rows = [[i, j, level_found[(i, j)]] for i, j in pairs]
    unseparated = sum(1 for v in level_found.values() if v < 0)
    cells = [
        {
            "cell": level,
            "pairs_separated_here": sum(1 for v in level_found.values() if v == level),
            "denominator_bound": den,
            "grid_count": gc,
        }
        for level, (den, gc) in enumerate(schedule)
    ]
    max_level = max((v for v in level_found.values() if v >= 0), default=-1)
    report = RunReport(
        command="uniqueness",
        config=cfg,
        seeds={},
        header=_header(
            [
                f"distinct members: {len(pairs)} pairs; "
                f"max truncation level needed: {max_level}; "
                f"unseparated pairs: {unseparated}",
            ]
        ),
        cells=cells,
    )
    counts = [c["pairs_separated_here"] for c in cells]
    return SweepOutput(
        report,
        csv_header="first,second,level",
        csv_rows=csv_rows,
        series={"pairs separated": ([float(c["cell"]) for c in cells], [float(c) for c in counts])},
        chart_title="separation level distribution",
        x_label="truncation level",
        y_label="pairs",
    )


# ---------------------------------------------------------------------------
# separation / vc / bound wrappers
# ---------------------------------------------------------------------------


def run_separation(cfg: dict) -> SweepOutput:
    domain = domain_from_dict(cfg["domain"])
    family = UtilityFamily.from_dict(cfg["family"], domain)
    noise = noise_from_dict(cfg["noise"])
    exponent = int(cfg.get("exponent_d", _default_exponent(domain)))
    scan = separation_exponent_check(
        family,
        noise,
        domain,
        n_pairs=int(cfg["n_pairs"]),
        m=int(cfg["m"]),
        exponent=exponent,
        seed=int(cfg.get("seed", 0)),
    )
    csv_rows = [[r, g, s] for r, g, s in scan.rows]
    cells = [
        {"cell": i, "rho": r, "gap": g, "stderr": s}
        for i, (r, g, s) in enumerate(scan.rows)
    ]
    report = RunReport(
        command="separation",
        config=cfg,
        seeds={"seed": int(cfg.get("seed", 0))},
        header=_header(
            [
                f"exponent D={exponent} "
                "(the d and 2d forms of the separation statement disagree; "
                "the exponent is configuration, not inference)",
                f"empirical constant min gap/rho^D = {scan.empirical_constant!r}; "
                f"violations={scan.violations}; skipped={scan.skipped}",
            ]
        ),
        cells=cells,
    )
    ordered = sorted(scan.rows)
    return SweepOutput(
        report,
        csv_header="rho,gap,stderr",
        csv_rows=csv_rows,
        series={"gap": ([r for r, _, _ in ordered], [g for _, g, _ in ordered])},
        chart_title="identification gap vs representation distance",
        x_label="rho",
        y_label="gap",
    )


def run_vc(cfg: dict) -> SweepOutput:
    domain = domain_from_dict(cfg["domain"])
    family = UtilityFamily.from_dict(cfg["family"], domain)
    got = vc_lower_bound(
        family,
        domain,
        k=int(cfg["k"]),
        trials=int(cfg["trials"]),
        seed=int(cfg.get("seed", 0)),
        proposals=cfg.get("proposals"),
    )
    report = RunReport(
        command="vc",
        config=cfg,
        seeds={"seed": int(cfg.get("seed", 0))},
        header=_header(
            ["every reported level is witnessed by an exhaustive labeling check"]
        ),
        cells=[{"cell": "vc_lower_bound", "value": got}],
    )
    return SweepOutput(report, csv_header="vc_lower_bound", csv_rows=[[got]])


def run_bound(cfg: dict) -> SweepOutput:
    bp = BoundParams(
        K=float(cfg["K"]),
        C_bar=float(cfg["C_bar"]),
        V=int(cfg["V"]),
        D=int(cfg["D"]),
        delta=float(cfg["delta"]),
    )
    n_grid = sorted(int(n) for n in cfg["n_grid"])
    vals = [bound_eval(bp, n) for n in n_grid]
    csv_rows = [[n, v] for n, v in zip(n_grid, vals)]
    report = RunReport(
        command="bound",
        config=cfg,
        seeds={},
        header=_header([]),
        cells=[{"cell": n, "bound": v} for n, v in zip(n_grid, vals)],
    )
    return SweepOutput(
        report,
        csv_header="n,bound",
        csv_rows=csv_rows,
        series={"bound": ([float(n) for n in n_grid], vals)},
        chart_title="finite-sample bound",
        x_label="n",
        y_label="bound",
    )
