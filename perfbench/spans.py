"""Span recorder for the traced run, and the wrappers it installs.

The recorder keeps every span in memory as ``(id, parent, name, thread,
start, end)`` and writes them out when the benchmark ends.  Wrappers are
installed only for the traced ops of a ``--trace 1`` run and are patched
where each caller looks the name up (``sweeps.generate_dataset``,
``sigma.expected_utility``, ``ConeDomain.sample`` ...), so ``src/`` stays
untouched.  Per-record scalar calls (``sample``, ``contains``, ``q_eval``,
``value``, ``value_batch``) are counted but get no span, which keeps the
tracing overhead small.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from recovery_lab import estimation, noisy_choice, wald_env
from recovery_lab.experiments import cli, report, sigma, sweeps


class _ThreadState:
    def __init__(self):
        self.thread = threading.get_ident()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.sampling = 0  # > 0 while inside a domain sampler


class Recorder:
    """Spans and counters from wrapped layer functions, kept in memory."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.pool_workers: list[int] = []  # effective workers of each parallel_map call

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def open(self, name: str, parent: int | None = None) -> tuple:
        """Start a span; its parent is ``parent`` or the innermost open span."""
        st = self.state()
        sid = next(self._ids)
        if parent is None and st.stack:
            parent = st.stack[-1]
        st.stack.append(sid)
        return st, sid, parent, name, time.perf_counter()

    def close(self, token: tuple) -> None:
        end = time.perf_counter()
        st, sid, parent, name, start = token
        st.stack.pop()
        st.spans.append((sid, parent, name, st.thread, start, end))

    def spans(self) -> list[tuple]:
        return [s for st in self._states for s in st.spans]

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for st in self._states:
            for key, v in st.counts.items():
                total[key] += v
        return total

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans(), key=lambda s: s[0]):
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[tuple]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-name total duration and self time.

    Self time is a span's duration minus the part of it that the union of
    its child spans covers; children may run on other threads (pool tasks).
    A pool task runs the sweep's own closure, so its self time counts as
    self time of the ``sweeps.run_*`` span it runs under.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    duration: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for sid, parent, name, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        duration[name] += end - start
        owner = name
        if name == "sweeps.parallel_map.task":
            while parent is not None and not by_id[parent][2].startswith("sweeps.run_"):
                parent = by_id[parent][1]
            if parent is not None:
                owner = by_id[parent][2]
        own[owner] += end - start - covered
    return duration, own


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _spanned(rec: Recorder, name: str, fn, count=None):
    calls = name + ".calls"

    def wrapper(*args, **kwargs):
        token = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(token)
        st = token[0]
        st.counts[calls] += 1
        if count is not None:
            count(st, args, result)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn, count=None, sampler: bool = False):
    calls = name + ".calls"
    state = rec.state

    def wrapper(*args, **kwargs):
        st = state()
        if sampler:
            st.sampling += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                st.sampling -= 1
        else:
            result = fn(*args, **kwargs)
        st.counts[calls] += 1
        if count is not None:
            count(st, args, result)
        return result

    return wrapper


def _add(key: str, amount):
    """Counter update that adds ``amount(args, result)`` to ``key``."""

    def count(st, args, result):
        st.counts[key] += amount(args, result)

    return count


def _rows(key: str):
    return _add(key, lambda args, result: len(result))


def _parallel_map(rec: Recorder, fn_orig):
    def wrapper(fn, items, threads):
        items = list(items)
        rec.pool_workers.append(threads if threads > 1 and len(items) > 1 else 1)
        token = rec.open("sweeps.parallel_map")
        pool_span = token[1]

        def task(item):
            task_token = rec.open("sweeps.parallel_map.task", parent=pool_span)
            try:
                return fn(item)
            finally:
                rec.close(task_token)

        try:
            return fn_orig(task, items, threads)
        finally:
            rec.close(token)

    return wrapper


def _cone_point(st, args, result):
    if st.sampling:
        st.counts["wald_env.cone.tested"] += 1
        st.counts["wald_env.cone.accepted"] += bool(result)


def _cone_batch(st, args, result):
    if st.sampling:
        st.counts["wald_env.cone.tested"] += len(result)
        st.counts["wald_env.cone.accepted"] += int(np.count_nonzero(result))


def _erm_counts(st, args, result):
    st.counts["estimation.candidates_evaluated"] += result.search_log["evaluated"]
    st.counts["estimation.erm_ties"] += result.ties


def _patches(rec: Recorder) -> tuple[list[tuple[object, str, object]], dict]:
    """(owner, attribute, wrapper) for every traced name, and the wrapped
    sweep handlers keyed by the CLI subcommand that looks them up."""

    def span(owner, attr, name, count=None):
        return owner, attr, _spanned(rec, name, vars(owner)[attr], count)

    def counted(owner, attr, name, count=None, sampler=False):
        return owner, attr, _counted(rec, name, vars(owner)[attr], count, sampler)

    box, cone, utility = wald_env.BoxDomain, wald_env.ConeDomain, wald_env.WaldUtility
    patches = [
        span(cli, "load_config", "cli.load_config"),
        span(report.SweepOutput, "write", "report.write",
             _add("report.bytes_written", lambda a, r: sum(p.stat().st_size for p in r.values()))),
        (sweeps, "parallel_map", _parallel_map(rec, sweeps.parallel_map)),
        span(sweeps, "generate_dataset", "noisy_choice.generate_dataset",
             _add("noisy_choice.generate_dataset.records", lambda a, r: r.n)),
        span(sweeps, "dataset_text", "noisy_choice.dataset_text",
             _add("noisy_choice.dataset_text.bytes", lambda a, r: len(r.encode("utf-8")))),
        span(sweeps, "read_dataset", "noisy_choice.read_dataset",
             _add("noisy_choice.read_dataset.bytes", lambda a, r: Path(a[0]).stat().st_size)),
        span(sweeps, "erm_fit", "estimation.erm_fit", _erm_counts),
        span(sweeps, "rho", "estimation.rho"),
        span(sweeps, "vc_lower_bound", "estimation.vc_lower_bound"),
        span(sweeps, "build_sigma", "sigma.build_sigma"),
        span(sweeps, "universe_values", "sigma.universe_values",
             _add("sigma.universe_values.cells", lambda a, r: r.size)),
        span(sweeps, "grid_from_config", "prefgrids.grid_from_config"),
        span(sweeps, "index_distance", "aa_prefs.index_distance"),
        span(sigma, "expected_utility", "aa_prefs.expected_utility"),
        counted(sigma, "act_value", "aa_prefs.act_value"),
        span(sigma, "enumerate_rational_lotteries", "lotteries.enumerate_rational_lotteries"),
        counted(noisy_choice, "q_eval", "noisy_choice.q_eval"),
        counted(noisy_choice, "q_eval_batch", "noisy_choice.q_eval_batch",
                _rows("noisy_choice.q_eval_batch.rows")),
        counted(estimation, "q_eval_batch", "noisy_choice.q_eval_batch",
                _rows("noisy_choice.q_eval_batch.rows")),
        counted(box, "sample", "wald_env.sample", sampler=True),
        counted(cone, "sample", "wald_env.sample", sampler=True),
        counted(box, "sample_batch", "wald_env.sample_batch",
                _rows("wald_env.sample_batch.rows"), sampler=True),
        counted(cone, "sample_batch", "wald_env.sample_batch",
                _rows("wald_env.sample_batch.rows"), sampler=True),
        counted(cone, "contains", "wald_env.contains", _cone_point),
        counted(cone, "contains_batch", "wald_env.contains_batch", _cone_batch),
        counted(utility, "value", "wald_env.value"),
        counted(utility, "value_batch", "wald_env.value_batch", _rows("wald_env.value_batch.rows")),
    ]
    handlers = {
        name: _spanned(rec, f"sweeps.{entry[0].__name__}", entry[0])
        for name, entry in cli._REGISTRY.items()
        if name in ("gen", "fit", "consistency", "recovery")
    }
    return patches, handlers


class Installed:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, rec: Recorder):
        self.patches, self.handlers = _patches(rec)

    def __enter__(self):
        self.saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in self.patches]
        self.saved_registry = dict(cli._REGISTRY)
        for owner, attr, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        for name, handler in self.handlers.items():
            cli._REGISTRY[name] = (handler, *cli._REGISTRY[name][1:])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self.saved:
            setattr(owner, attr, original)
        cli._REGISTRY.update(self.saved_registry)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, better, source).  Source is a counter key, ("self", span),
#: ("wall", span), or a derived ratio.  Counts and times are per traced op.
#: The comment on each group names the end-to-end metric the layer should
#: move, and on which workload; on a bypass workload the prediction is no
#: change.
PER_LAYER = {
    # -> records_per_s on consistency (cone rejection); gen-fit's box has none
    "wald_env.sample.calls": ("calls/op", "lower", "wald_env.sample.calls"),
    "wald_env.sample_batch.rows": ("rows/op", "higher", "wald_env.sample_batch.rows"),
    "wald_env.cone_accept_ratio": ("ratio", "higher", "cone_accept_ratio"),
    # -> op_s_p50 on consistency and gen-fit: calls are per-record overhead,
    #    rows are ERM work
    "wald_env.value_batch.calls": ("calls/op", "lower", "wald_env.value_batch.calls"),
    "wald_env.value_batch.rows": ("rows/op", "lower", "wald_env.value_batch.rows"),
    # -> records_per_s on consistency and gen-fit; bypassed on recovery
    "noisy_choice.generate_dataset.self_s": ("s/op", "lower", ("self", "noisy_choice.generate_dataset")),
    "noisy_choice.generate_dataset.records": ("records/op", "higher", "noisy_choice.generate_dataset.records"),
    "noisy_choice.q_eval.calls": ("calls/op", "lower", "noisy_choice.q_eval.calls"),
    "noisy_choice.q_eval_batch.rows": ("rows/op", "higher", "noisy_choice.q_eval_batch.rows"),
    # -> op_s_p50 on gen-fit only
    "noisy_choice.dataset_text.self_s": ("s/op", "lower", ("self", "noisy_choice.dataset_text")),
    "noisy_choice.dataset_text.bytes": ("B/op", "lower", "noisy_choice.dataset_text.bytes"),
    "noisy_choice.read_dataset.self_s": ("s/op", "lower", ("self", "noisy_choice.read_dataset")),
    "noisy_choice.read_dataset.bytes": ("B/op", "lower", "noisy_choice.read_dataset.bytes"),
    # -> op_s_p50 on gen-fit, and on consistency once generation is batched
    "estimation.erm_fit.self_s": ("s/op", "lower", ("self", "estimation.erm_fit")),
    "estimation.erm_fit.calls": ("calls/op", "lower", "estimation.erm_fit.calls"),
    "estimation.candidates_evaluated": ("cands/op", "lower", "estimation.candidates_evaluated"),
    "estimation.erm_ties": ("ties/op", "lower", "estimation.erm_ties"),
    # -> consistency
    "estimation.rho.self_s": ("s/op", "lower", ("self", "estimation.rho")),
    "estimation.vc_lower_bound.self_s": ("s/op", "lower", ("self", "estimation.vc_lower_bound")),
    # -> op_s_p50 on recovery; act_value is the non-EU fallback (0 everywhere today)
    "aa_prefs.expected_utility.calls": ("calls/op", "lower", "aa_prefs.expected_utility.calls"),
    "aa_prefs.expected_utility.self_s": ("s/op", "lower", ("self", "aa_prefs.expected_utility")),
    "aa_prefs.index_distance.calls": ("calls/op", "lower", "aa_prefs.index_distance.calls"),
    "aa_prefs.index_distance.self_s": ("s/op", "lower", ("self", "aa_prefs.index_distance")),
    "aa_prefs.act_value.calls": ("calls/op", "lower", "aa_prefs.act_value.calls"),
    # -> setup_s and op_s_p50 on recovery
    "lotteries.enumerate_rational_lotteries.self_s": (
        "s/op", "lower", ("self", "lotteries.enumerate_rational_lotteries")),
    # -> op_s_p50 and peak_rss_mb on recovery
    "sigma.build_sigma.self_s": ("s/op", "lower", ("self", "sigma.build_sigma")),
    "sigma.universe_values.self_s": ("s/op", "lower", ("self", "sigma.universe_values")),
    "sigma.universe_values.cells": ("cells/op", "lower", "sigma.universe_values.cells"),
    # -> recovery
    "prefgrids.grid_from_config.self_s": ("s/op", "lower", ("self", "prefgrids.grid_from_config")),
    # the sweeps' own work (for recovery: codes, survivors, disagreement arrays)
    "sweeps.run_consistency.self_s": ("s/op", "lower", ("self", "sweeps.run_consistency")),
    "sweeps.run_recovery.self_s": ("s/op", "lower", ("self", "sweeps.run_recovery")),
    "sweeps.run_gen.self_s": ("s/op", "lower", ("self", "sweeps.run_gen")),
    "sweeps.run_fit.self_s": ("s/op", "lower", ("self", "sweeps.run_fit")),
    # -> op_s_p50 on consistency (task_s / wall_s is the achieved parallelism);
    #    recovery bypasses the pool
    "sweeps.parallel_map.wall_s": ("s/op", "lower", ("wall", "sweeps.parallel_map")),
    "sweeps.parallel_map.task_s": ("s/op", "lower", ("wall", "sweeps.parallel_map.task")),
    # -> the fixed per-op cost on all three workloads
    "report.write.self_s": ("s/op", "lower", ("self", "report.write")),
    "report.bytes_written": ("B/op", "lower", "report.bytes_written"),
    "cli.load_config.self_s": ("s/op", "lower", ("self", "cli.load_config")),
    # traced op_s_p50 / untraced op_s_p50 - 1
    "trace.overhead_ratio": ("ratio", "lower", "overhead_ratio"),
}


def layer_metrics(rec: Recorder, traced_ops: int, overhead_ratio: float) -> dict[str, dict]:
    """Every PER_LAYER metric, counts and times divided by the traced op count."""
    counts = rec.counts()
    wall, own = self_times(rec.spans())
    tested = counts["wald_env.cone.tested"]
    derived = {
        # no cone point tested means no rejection work was wasted
        "cone_accept_ratio": counts["wald_env.cone.accepted"] / tested if tested else 1.0,
        "overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, (unit, _, source) in PER_LAYER.items():
        if isinstance(source, tuple):
            kind, span = source
            value = (own if kind == "self" else wall).get(span, 0.0) / traced_ops
        elif source in derived:
            value = derived[source]
        else:
            value = counts.get(source, 0.0) / traced_ops
        out[name] = {"value": value, "unit": unit}
    return out


def bypass_problems(workload: str, rec: Recorder) -> list[str]:
    """Bypassed layers that did work, and required layers that did none."""
    counts = rec.counts()
    workers = max(rec.pool_workers, default=0)
    problems = []

    def calls(name):
        return counts.get(name + ".calls", 0)

    if workload == "recovery":
        for name in ("noisy_choice.generate_dataset", "estimation.erm_fit",
                     "noisy_choice.dataset_text", "noisy_choice.read_dataset"):
            if calls(name):
                problems.append(f"bypass guard: {name} called {calls(name):.0f} times")
        if workers > 1:
            problems.append(f"bypass guard: parallel_map ran {workers} workers")
    else:
        for name in ("sigma.build_sigma", "sigma.universe_values", "aa_prefs.expected_utility"):
            if calls(name):
                problems.append(f"bypass guard: {name} called {calls(name):.0f} times")
    if workload == "consistency" and workers != 2:
        problems.append(f"bypass guard: parallel_map ran {workers} workers, expected 2")
    return problems
