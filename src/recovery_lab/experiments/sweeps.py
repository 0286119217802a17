"""The experiment sweeps behind each CLI subcommand.

Each run_* function first reads its config dict through its field table
(``*_FIELDS``, see config.py), which checks every field and builds each
descriptor once, and produces a SweepOutput (report + CSV rows + chart
series).  Replicates and sweep cells are pure functions of derived seeds,
executed in a deterministic order, so outputs do not depend on the worker
thread count.
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
from ..lotteries import UNIT, lottery
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
from .config import (
    INTERVAL,
    SCHEDULE,
    Field,
    as_float,
    as_int,
    as_list,
    choice,
    count,
    counts,
    fields,
    number,
    read_fields,
    truncation,
)
from .prefgrids import grid_from_config
from .report import STANDARD_NOTES, RunReport, SweepOutput, quantile_stats
from .sigma import _GATHER_CELLS, VALUE_TIE_TOL, build_sigma, universe_values

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


# ---------------------------------------------------------------------------
# config fields that build descriptors (the generic readers are in config.py)
# ---------------------------------------------------------------------------


def _preference(spec, got) -> WaldUtility:
    pref, domain = WaldUtility.from_dict(spec), got.domain
    if pref.dim != domain.dim:
        raise ValueError(f"it has dimension {pref.dim} but the domain {domain.dim}")
    if pref.kind != LINEAR and isinstance(domain, BoxDomain) and min(domain.lo) < 0:
        raise ValueError(f"{pref.kind} needs nonnegative bundles, box lo is {list(domain.lo)}")
    return pref


def _exponent(value, got) -> int:
    if value is None:  # homothetic cone environments double the dimension exponent
        return 2 * got.domain.dim if isinstance(got.domain, ConeDomain) else got.domain.dim
    return as_int(value, 1)


def _fit_domain(spec, got):
    if spec is None and (spec := got.dataset.meta.get("domain")) is None:
        raise ConfigError("domain is missing: the dataset's meta line has none; set it in the config")
    return domain_from_dict(spec)


def _candidates(spec, got) -> list[AAPreference]:
    grid = grid_from_config(spec, got.interval)
    if not grid:
        raise ValueError("the grid is empty")
    if grid[0].states.n_states != got.states:
        raise ValueError(f"the grid has {grid[0].states.n_states} states, not {got.states}")
    return grid


def _true_index(value, got) -> int:
    if as_int(value, 0) >= len(got.candidates):
        raise ValueError(f"the grid has {len(got.candidates)} members")
    return value


def _proposals(value, got) -> list | None:
    for c in [] if value is None else as_list(value, 0):
        if c and np.shape(np.asarray(c, dtype=float))[1:] != (2, got.domain.dim):
            raise ValueError(f"{c!r} is not a list of (x, y) pairs of {got.domain.dim}-vectors")
    return value


def _eval_steps(value, got) -> int:
    if (points := len(lattice_points(got.domain, as_int(value, 1)))) < 2:
        raise ValueError(f"its lattice holds {points} domain point")
    return value


def _vector(value) -> np.ndarray:
    return np.array([as_float(x) for x in as_list(value, 1)])


def _prizes(value, got) -> np.ndarray:
    v = _vector(value)
    if float(v.sum()) ** 2 - len(v) * (float(v @ v) - 1.0) < 0:
        raise ValueError("no unit-norm renormalization exists at k = 1")
    return v


def _prior(value, got) -> np.ndarray:
    p = _vector(value)
    if not (p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError
    return p


DOMAIN = Field("a domain descriptor", lambda v, got: domain_from_dict(v))
NOISE = Field("a noise descriptor", lambda v, got: noise_from_dict(v))
FAMILY = Field("a utility family descriptor", lambda v, got: UtilityFamily.from_dict(v, got.domain))
PREFERENCE = Field("a utility descriptor over the domain", _preference)
EXPONENT = Field("an integer >= 1 (default: the dimension, doubled on a cone)", _exponent, None)
POSITIVE = number("a number > 0", lambda x: x > 0)
CANDIDATES = Field("a candidate grid descriptor over the config's states", _candidates)
KINDS = ("eu", "maxmin", "variational")


def _output(command: str, cfg: dict, seeds: dict, notes: list[str], cells: list[dict],
            csv_header: str = "", csv_rows: list[list] | None = None, **chart) -> SweepOutput:
    """The run's report (the raw config echoed, the standard notes before the
    run's own) with its CSV table and chart or extra files."""
    report = RunReport(command, cfg, seeds, {"notes": [*STANDARD_NOTES, *notes]}, cells)
    return SweepOutput(report, csv_header, csv_rows or [], **chart)


# ---------------------------------------------------------------------------
# gen / fit
# ---------------------------------------------------------------------------


GEN_FIELDS = fields(n=count(0), domain=DOMAIN, noise=NOISE, preference=PREFERENCE)


def run_gen(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, GEN_FIELDS)
    ds = generate_dataset(f.domain, f.preference, f.noise, f.n, f.seed)
    notes = ["record i draws from the counter stream (seed, i)"]
    cells = [{"cell": "dataset", "n": f.n}]
    return _output("gen", cfg, {"seed": f.seed}, notes, cells,
                   extra_files={"dataset.jsonl": dataset_text(ds)})


FIT_FIELDS = fields(
    refinements=count(0, 2),
    dataset=Field("the path of a JSONL choice dataset", lambda v, got: read_dataset(v)),
    domain=Field("a domain descriptor (default: the dataset's)", _fit_domain, None),
    family=FAMILY,
)


def run_fit(cfg: dict) -> SweepOutput:
    from .. import _jsonio

    f = read_fields(cfg, FIT_FIELDS)
    result = erm_fit(f.family, f.dataset, refinements=f.refinements)
    notes = ["ties break toward the lexicographically smallest parameters"]
    cell = {"cell": "fit", "score": result.score, "ties": result.ties, "n": result.n,
            "grid_size": result.search_log["grid_size"]}
    return _output("fit", cfg, {}, notes, [cell],
                   extra_files={"fit.json": _jsonio.dumps(result.to_dict()) + "\n"})


# ---------------------------------------------------------------------------
# consistency (noisy estimation sweep)
# ---------------------------------------------------------------------------


CONSISTENCY_FIELDS = fields(
    domain=DOMAIN, family=FAMILY, noise=NOISE, true_preference=PREFERENCE, n_grid=counts(1),
    replicates=count(1, 5),
    eval_steps=Field("an integer >= 1 whose lattice holds >= 2 domain points", _eval_steps, 16),
    delta=number("a number in (0, 1]", lambda x: 0 < x <= 1, 0.1), exponent_d=EXPONENT,
    vc_dimension=Field("an integer >= 0 (default: found by a shattering search)",
                       lambda v, got: None if v is None else as_int(v, 0), None),
    vc_k=count(1, 2), vc_trials=count(1, 10),
)


def run_consistency(cfg: dict, threads: int = 1) -> SweepOutput:
    f = read_fields(cfg, CONSISTENCY_FIELDS)
    family, u_true, seed, n_grid = f.family, f.true_preference, f.seed, f.n_grid
    eval_grid = lattice_points(f.domain, f.eval_steps)
    delta, exponent, vc = f.delta, f.exponent_d, f.vc_dimension
    if vc is None:
        vc = vc_lower_bound(family, f.domain, k=f.vc_k, trials=f.vc_trials, seed=seed)
    vc = max(vc, 1)

    def one_cell(cell):
        n, rep = cell
        ds = generate_dataset(f.domain, u_true, f.noise, n, [seed, n, rep])
        fit = erm_fit(family, ds)
        return n, rep, rho(fit.best, u_true, eval_grid), fit.score

    cells_in = [(n, rep) for n in n_grid for rep in range(f.replicates)]
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
    notes = [
        f"bound constants fitted on the smallest cell: K=1, C_bar={c_bar!r}",
        f"vc_lower_bound={vc}, exponent D={exponent} "
        "(stated separation exponents differ between the d and 2d forms; "
        "D follows the environment default and is configurable)",
    ]
    ns = [float(n) for n in n_grid]
    series = {
        "median rho": (ns, [quantile_stats(by_n[n])["q50"] for n in n_grid]),
        "bound": (ns, [bound_eval(bp, n) for n in n_grid]),
    }
    seeds = {"seed": seed, "cell_seed_rule": "[seed, n, replicate]"}
    return _output("consistency", cfg, seeds, notes, cells, "n,replicate,rho,score,bound",
                   csv_rows, series=series, chart_title="estimation error vs sample size",
                   x_label="n", y_label="rho")


# ---------------------------------------------------------------------------
# recovery (noiseless finite experiments)
# ---------------------------------------------------------------------------


def _codes(d: np.ndarray) -> np.ndarray:
    """Choice codes of value differences: 0 tie, 1 first act, 2 second act."""
    return np.where(np.abs(d) <= VALUE_TIE_TOL, 0, np.where(d > 0, 1, 2))


RECOVERY_FIELDS = fields(
    states=count(1), interval=INTERVAL, truncation=truncation(), k_grid=counts(0),
    replicates=count(1, 3), disagreement_m=count(1, 4000), candidates=CANDIDATES,
    true_index=Field("an index into the candidate grid", _true_index),
)


def run_recovery(cfg: dict, threads: int = 1) -> SweepOutput:
    f = read_fields(cfg, RECOVERY_FIELDS)
    (den, gc), k_grid, seed, candidates = f.truncation, f.k_grid, f.seed, f.candidates
    true = candidates[f.true_index]
    m_universe = build_sigma(f.states, f.interval, den, gc, k=1).universe_size

    def one_replicate(rep: int):
        perm = np.random.default_rng([seed, rep]).permutation(m_universe)
        # a k=0 cell is a vacuous constraint
        sig = build_sigma(f.states, f.interval, den, gc, k=max(k_grid[-1], 1), permutation=perm)
        values = universe_values(candidates, sig)
        v_true = values[f.true_index]
        pairs = np.asarray(sig.pairs)
        rng2 = np.random.default_rng([seed, rep, 1])
        ii = rng2.integers(0, m_universe, f.disagreement_m)
        jj = rng2.integers(0, m_universe, f.disagreement_m)
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
                worst = np.empty((3, len(candidates)))
                # blocks of rows bound the (rows, disagreement_m) temporaries
                for rows in np.array_split(alive, -(-len(alive) * len(ii) // _GATHER_CELLS)):
                    d = values[np.ix_(rows, ii)] - values[np.ix_(rows, jj)]
                    worst[0, rows] = np.mean(((d > 0) & (d_true < 0)) | ((d < 0) & (d_true > 0)), axis=1)
                    worst[1, rows] = np.max(np.abs(values[rows] - v_true), axis=1)
                worst[2, alive] = [index_distance(candidates[r].index, true.index) for r in alive]
            d, dv, du = worst[:, alive].max(axis=1).tolist()
            out.append((k, rep, len(alive), d, dv, du, False))
        return out

    reps = parallel_map(one_replicate, range(f.replicates), threads)
    all_rows = [row for rep_rows in reps for row in rep_rows]
    csv_rows = [
        [k, rep, n_alive, "", "", ""] if flag else [k, rep, n_alive, d, dv, du]
        for (k, rep, n_alive, d, dv, du, flag) in all_rows
    ]
    cells = []
    for k in k_grid:
        sub = [r for r in all_rows if r[0] == k]
        stats = quantile_stats([r[3] for r in sub if not r[6]])
        survivors_q50 = float(np.median([r[2] for r in sub]))
        cells.append({"cell": k, "replicates": f.replicates, "survivors_q50": survivors_q50,
                      "empty_cells": sum(1 for r in sub if r[6]), **stats})
    notes = [
        "choices are noiseless; replicates perturb only the enumeration order",
        "disagreement sampled uniformly from the truncation-level universe",
    ]
    seeds = {"seed": seed, "replicate_rule": "universe permuted by [seed, replicate]"}
    med_series = [c.get("q50", 0.0) for c in cells]
    return _output("recovery", cfg, seeds, notes, cells,
                   "k,replicate,survivors,max_disagreement,max_dv,max_du", csv_rows,
                   series={"median worst disagreement": ([float(k) for k in k_grid], med_series)},
                   chart_title="worst surviving rationalizer vs experiment size",
                   x_label="k", y_label="disagreement")


# ---------------------------------------------------------------------------
# representation convergence and certainty-equivalent continuity
# ---------------------------------------------------------------------------


def _index_at(eps: float) -> BernoulliIndex:
    return BernoulliIndex(UNIT, (0.0, 0.5, 1.0), (0.0, 0.6 + 0.25 * eps, 1.0))


def _sequence_family(kind: str):
    """pref_at(eps): the target at eps=0, approximants at eps = 2**-k.

    ``kind`` is one of KINDS; the field tables refuse any other."""
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

    return pref_at


THEOREM2_FIELDS = fields(
    kind=choice("all", *KINDS, default="all"), k_max=count(0, 12),
    act_truncation=truncation({"denominator_bound": 2, "grid_count": 3}), z_steps=count(1, 8),
)


def run_theorem2_demo(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, THEOREM2_FIELDS)
    kinds = KINDS if f.kind == "all" else [f.kind]
    k_max, (den, gc), z_steps = f.k_max, f.act_truncation, f.z_steps
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
    notes = [
        "parameter sequences approach the target geometrically (ratio 1/2)",
        f"dv evaluated on the {len(grid)}-act universe; dh on the "
        f"{{0..1}}^S lattice with step 1/{z_steps}",
    ]
    return _output("theorem2", cfg, {}, notes, cells, "kind,k,du,dv,dh", csv_rows, series=series,
                   chart_title="representation distances along converging preferences",
                   x_label="k", y_label="sup distance")


CE_CONTINUITY_FIELDS = fields(kind=choice(*KINDS, default="eu"), k_max=count(0, 12))


def run_ce_continuity(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, CE_CONTINUITY_FIELDS)
    k_max, pref_at = f.k_max, _sequence_family(f.kind)
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
    notes = ["certainty equivalents inverted by bisection on the index"]
    return _output("ce-continuity", cfg, {}, notes, cells, "k,ce,gap", csv_rows,
                   series={"|ce_k - ce|": ([float(k) for k in range(k_max + 1)], gaps)},
                   chart_title="certainty-equivalent continuity", x_label="k", y_label="gap")


# ---------------------------------------------------------------------------
# non-identification demonstration
# ---------------------------------------------------------------------------


NONID_FIELDS = fields(
    prize_values=Field("a nonempty list of numbers with a unit-norm renormalization at k = 1",
                       _prizes, [0.0, 0.4, 1.0]),
    state_prior=Field("a probability vector", _prior, [0.35, 0.65]),
    k_max=count(1, 50), m=count(1, 4000),
)


def run_nonidentification_demo(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, NONID_FIELDS)
    prize_values, state_prior, k_max, m, seed = f.prize_values, f.state_prior, f.k_max, f.m, f.seed
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
    notes = [
        "fixed preference; renormalized representations drift toward a "
        "constant function while choices never change",
        f"finite prize set of size {n}",
    ]
    ks = [float(k) for k in range(1, k_max + 1)]
    series = {"disagreement": (ks, disagreements), "distance to constant": (ks, dists)}
    return _output("nonid", cfg, {"seed": seed}, notes, cells,
                   "k,disagreement,distance_to_constant,beta", csv_rows, series=series,
                   chart_title="representation drift without preference drift",
                   x_label="k", y_label="value")


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


UNIQUENESS_FIELDS = fields(
    states=count(1), interval=INTERVAL, candidates=CANDIDATES, schedule=SCHEDULE
)


def run_dense_uniqueness_check(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, UNIQUENESS_FIELDS)
    members, schedule = f.candidates, f.schedule
    pairs = [(i, j) for i in range(len(members)) for j in range(i + 1, len(members))]
    level_found = {p: -1 for p in pairs}
    for level, (den, gc) in enumerate(schedule):
        open_pairs = [p for p in pairs if level_found[p] < 0]
        if not open_pairs:
            break
        sig = build_sigma(f.states, f.interval, den, gc, k=1)
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
    notes = [
        f"distinct members: {len(pairs)} pairs; "
        f"max truncation level needed: {max_level}; "
        f"unseparated pairs: {unseparated}",
    ]
    separated = [float(c["pairs_separated_here"]) for c in cells]
    return _output("uniqueness", cfg, {}, notes, cells, "first,second,level", csv_rows,
                   series={"pairs separated": ([float(c["cell"]) for c in cells], separated)},
                   chart_title="separation level distribution",
                   x_label="truncation level", y_label="pairs")


# ---------------------------------------------------------------------------
# separation / vc / bound wrappers
# ---------------------------------------------------------------------------


SEPARATION_FIELDS = fields(
    domain=DOMAIN, family=FAMILY, noise=NOISE, n_pairs=count(1), m=count(1), exponent_d=EXPONENT
)


def run_separation(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, SEPARATION_FIELDS)
    exponent = f.exponent_d
    scan = separation_exponent_check(
        f.family, f.noise, f.domain, n_pairs=f.n_pairs, m=f.m, exponent=exponent, seed=f.seed
    )
    csv_rows = [[r, g, s] for r, g, s in scan.rows]
    cells = [
        {"cell": i, "rho": r, "gap": g, "stderr": s}
        for i, (r, g, s) in enumerate(scan.rows)
    ]
    notes = [
        f"exponent D={exponent} "
        "(the d and 2d forms of the separation statement disagree; "
        "the exponent is configuration, not inference)",
        f"empirical constant min gap/rho^D = {scan.empirical_constant!r}; "
        f"violations={scan.violations}; skipped={scan.skipped}",
    ]
    ordered = sorted(scan.rows)
    return _output("separation", cfg, {"seed": f.seed}, notes, cells, "rho,gap,stderr", csv_rows,
                   series={"gap": ([r for r, _, _ in ordered], [g for _, g, _ in ordered])},
                   chart_title="identification gap vs representation distance",
                   x_label="rho", y_label="gap")


VC_FIELDS = fields(
    domain=DOMAIN, family=FAMILY, k=count(1), trials=count(1),
    proposals=Field("a list of candidate sets, each a list of (x, y) problems", _proposals, None),
)


def run_vc(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, VC_FIELDS)
    got = vc_lower_bound(
        f.family, f.domain, k=f.k, trials=f.trials, seed=f.seed, proposals=f.proposals
    )
    notes = ["every reported level is witnessed by an exhaustive labeling check"]
    return _output("vc", cfg, {"seed": f.seed}, notes, [{"cell": "vc_lower_bound", "value": got}],
                   "vc_lower_bound", [[got]])


BOUND_FIELDS = fields(
    K=POSITIVE, C_bar=POSITIVE, V=count(1), D=count(1),
    delta=number("a number in (0, 1]", lambda x: 0 < x <= 1), n_grid=counts(1),
)


def run_bound(cfg: dict) -> SweepOutput:
    f = read_fields(cfg, BOUND_FIELDS)
    bp = BoundParams(K=f.K, C_bar=f.C_bar, V=f.V, D=f.D, delta=f.delta)
    n_grid = f.n_grid
    vals = [bound_eval(bp, n) for n in n_grid]
    cells = [{"cell": n, "bound": v} for n, v in zip(n_grid, vals)]
    return _output("bound", cfg, {}, [], cells, "n,bound", [[n, v] for n, v in zip(n_grid, vals)],
                   series={"bound": ([float(n) for n in n_grid], vals)},
                   chart_title="finite-sample bound", x_label="n", y_label="bound")
