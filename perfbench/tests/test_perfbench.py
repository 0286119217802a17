"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORK = BENCH / "out" / "selftest"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _, _) in spans.PER_LAYER.items()
    }
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == {
        name: better for name, (_, better, _) in spans.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    details = bench.run(workload, 3, 0.0, trace, WORK / f"{workload}-{trace}", tiny=True)
    line = details["result"]
    assert details["findings"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_truncated_dataset_counts_as_failed_op(monkeypatch):
    real = workloads.cli_main

    def gen_then_truncate(argv):
        code = real(argv)
        if argv[0] == "gen":
            path = Path(argv[argv.index("--out") + 1]) / "dataset.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:-1]), encoding="utf-8")
        return code

    monkeypatch.setattr(workloads, "cli_main", gen_then_truncate)
    details = bench.run("gen-fit", 3, 0.0, False, WORK / "truncated", tiny=True)
    line = details["result"]
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 1
    assert line["metrics"]["ok_share"]["value"] == 0.0


def test_refuses_to_run_without_the_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recovery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        (1, None, "parent", 1, 0.0, 10.0),
        (2, 1, "child", 1, 1.0, 4.0),
        (3, 1, "child", 2, 3.0, 6.0),  # overlaps the first child, on another thread
        (4, 3, "grandchild", 2, 3.5, 4.5),
    ]
    wall, own = spans.self_times(recorded)
    assert own["parent"] == pytest.approx(5.0)
    assert own["child"] == pytest.approx(3.0 + 2.0)
    assert wall["child"] == pytest.approx(6.0)


def test_tail_leaves_ten_ops_beyond_it():
    assert bench.tail([float(i) for i in range(30)]) == (19.0, "p67 of 30 ops, ten slower")
    assert bench.tail([2.0, 1.0]) == (2.0, "max of 2 ops (fewer than 11)")


def test_bypass_guard_flags_a_bypassed_layer_doing_work():
    rec = spans.Recorder()
    rec.state().counts["noisy_choice.generate_dataset.calls"] += 1
    rec.pool_workers.append(2)
    assert len(spans.bypass_problems("recovery", rec)) == 2
    assert spans.bypass_problems("consistency", rec) == []
    assert spans.bypass_problems("gen-fit", spans.Recorder()) == []
    assert len(spans.bypass_problems("consistency", spans.Recorder())) == 1
