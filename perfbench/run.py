"""The recovery-lab benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload consistency --seed 1 --seconds 35 --trace 0

One process sets up, runs one untimed reference op, then runs ops back to
back (a closed loop with one caller) until ``--seconds`` of op time have
been measured.  Each op is timed alone; its output checks run after its
timer stops.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--trace 1`` alternates untraced and traced ops.  The traced ops run with
the wrappers of ``spans.py`` installed; their spans are written to
``perfbench/out/<workload>-trace1/spans.jsonl`` and the traced versus
untraced median op time gives ``trace.overhead_ratio``.  That run also
checks that each workload's bypassed layers did no work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: name -> unit.  Bounds and directions live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "records_per_s": "1/s",
    "pair_checks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

SETUP_REPS = 5
CACHE_KEYS = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")
IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import recovery_lab.experiments.cli"


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile of op time that has ten ops beyond it."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n} ops (fewer than 11)"
    k = n - 11
    return s[k], f"p{100 * (k + 1) / n:.0f} of {n} ops, ten slower"


def measure_setup(cls, work: Path, tiny: bool):
    """Median over fresh-interpreter imports of the CLI plus workload set-up.

    Returns the median time and the last set-up workload, which the run uses.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CLI, str(SRC)], check=True)
        workload = cls(work, tiny)
        times.append(time.perf_counter() - start)
    return statistics.median(times), workload


def environment(workload: str, seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            sha = got.stdout.strip() or None
        except FileNotFoundError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True).stdout
    except FileNotFoundError:
        conf = ""
    for parts in map(str.split, conf.splitlines()):
        if len(parts) == 2 and parts[0] in CACHE_KEYS and parts[1].isdigit():
            caches[parts[0]] = int(parts[1])
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
    }


def _timed_op(workload, seed: int, rec) -> tuple[float, str | None]:
    """Run one op; returns its wall time and the error it raised, if any."""
    token = rec.open("op") if rec is not None else None
    error = None
    start = time.perf_counter()
    try:
        workload.run(seed)
    except Exception as exc:  # a failing op is a finding, not a crash
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if token is not None:
        rec.close(token)
    return elapsed, error


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, tiny: bool = False) -> dict:
    """One benchmark run.  Returns the result line plus details for humans."""
    import spans
    from workloads import WORKLOADS

    shutil.rmtree(work, ignore_errors=True)
    setup_s, workload = measure_setup(WORKLOADS[name], work, tiny)
    seeds = random.Random(seed)
    first = seeds.randrange(2**31)

    # Untimed reference op on the first op's seed: warms lazy set-up, and the
    # first op must reproduce its bytes.
    findings = []
    reference = None
    try:
        workload.clear()
        workload.run(first, reference=True)
        reference = workload.snapshot()
    except Exception as exc:  # a failing op is a finding, not a crash
        findings.append(f"reference op (seed {first}): {type(exc).__name__}: {exc}")

    rec = spans.Recorder() if trace else None
    installed = spans.Installed(rec) if trace else None
    times: dict[bool, list[float]] = {False: [], True: []}
    failed = 0
    # at least one op, and with --trace 1 at least one traced and one untraced
    while not times[False] or (trace and not times[True]) or sum(times[False] + times[True]) < seconds:
        i = len(times[False]) + len(times[True])
        op_seed = first if i == 0 else seeds.randrange(2**31)
        traced = trace and i % 2 == 1
        workload.clear()
        if traced:
            with installed:
                elapsed, error = _timed_op(workload, op_seed, rec)
        else:
            elapsed, error = _timed_op(workload, op_seed, None)
        times[traced].append(elapsed)
        if error:
            problems = [error]
        else:
            try:
                problems = workload.check(op_seed)
                if i == 0 and reference is not None and workload.snapshot() != reference:
                    problems.append("first op differs from the reference op on the same seed")
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            findings.extend(f"op {i} (seed {op_seed}): {p}" for p in problems)
    attempted = len(times[False]) + len(times[True])
    pooled = workload.finish()
    if pooled:
        failed = attempted  # the pooled criterion covers every op of the run
        findings.extend(f"pooled over {attempted} ops: {p}" for p in pooled)

    notes = [f"failed_share {failed}/{attempted} = {failed / attempted!r}"]
    if trace:
        overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        metrics = spans.layer_metrics(rec, len(times[True]), overhead)
        findings.extend(spans.bypass_problems(name, rec))
        rec.write_spans(work / "spans.jsonl")
        notes.append(f"{len(times[True])} traced and {len(times[False])} untraced ops")
    else:
        all_times = times[False]
        total = sum(all_times)
        tail_value, tail_note = tail(all_times)
        values = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(all_times),
            "op_s_tail": tail_value,
            "records_per_s": workload.records * attempted / total,
            "pair_checks_per_s": workload.pair_checks * attempted / total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        notes.append(f"op_s_tail is the {tail_note}")
        notes.append(
            f"per op: {workload.records} records, {workload.pair_checks} pair checks"
        )
    line = {
        "correct": not findings,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "environment": environment(name, seed),
        "notes": notes,
        "findings": findings,
        "op_seconds": times[False] + times[True],
        "result": line,
    }
    (work / "result.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    return details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("consistency", "gen-fit", "recovery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recovery_lab" / "__init__.py").is_file():
        sys.stderr.write(f"no recovery_lab sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import recovery_lab

    if Path(recovery_lab.__file__).resolve().parent != SRC / "recovery_lab":
        sys.stderr.write(f"imported recovery_lab from {recovery_lab.__file__}, not {SRC}\n")
        return 2
    # the workloads fix their own thread counts
    os.environ.pop("RECOVERY_LAB_THREADS", None)
    details = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        OUT / f"{args.workload}-trace{args.trace}",
    )
    line = details["result"]
    for key, m in line["metrics"].items():
        print(f"{key:<46} {m['value']:>14.6g} {m['unit']}")
    for note in details["notes"]:
        print(f"note: {note}")
    for finding in details["findings"]:
        print(f"FINDING: {finding}")
    print(json.dumps({"environment": details["environment"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
