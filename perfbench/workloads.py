"""The three benchmark workloads: configs, ops and output checks.

One op is one or two in-process ``cli_main`` calls, from config read to
outputs written.  Every workload is a closed loop: one caller runs ops back
to back, each on its own seed.  Checks read the op's outputs after the op's
timer has stopped; a failing check is a finding and is never re-seeded,
resized or loosened.

Why these workloads:

- ``consistency``: the paper's headline consistency experiment.  Dataset
  generation (per-record RNG streams, cone rejection sampling, scalar
  ``q_eval``) is almost all of its time, and it is the only workload that
  runs the thread pool.
- ``gen-fit``: the file round trip users run.  One large box dataset (no
  rejection) is written as JSONL, read back and fitted on a CES grid 15x
  larger than consistency's, so dataset I/O and ``erm_fit`` weigh here.
- ``recovery``: noiseless finite experiments.  No generation, no ERM, no
  dataset I/O and no pool; its cost is scalar EU, index distances, sigma
  and the sweep's own (P, k) arrays, and it is the workload where memory
  moves.  It is the bypass workload for changes to generation and the pool.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import jsonschema

import recovery_lab
from recovery_lab.estimation import empirical_score
from recovery_lab.experiments import grid_from_config
from recovery_lab.experiments.cli import cli_main
from recovery_lab.lotteries import UNIT
from recovery_lab.noisy_choice import noise_from_dict, read_dataset
from recovery_lab.wald_env import UtilityFamily, WaldUtility, domain_from_dict

# The acceptance consistency sweep's config (c08/c09); each op runs one replicate.
CONSISTENCY_CFG = {
    "version": 1,
    "domain": {"cone": {"alpha": 0.1, "M": 1.0, "d": 2}},
    "family": {"ces": {"rho_grid": [0.5, 1.0, 2.0, 4.0], "weight_steps": 16}},
    "noise": {"bounded_response": {"theta_min": 0.6, "theta_max": 0.9, "tau": 0.5}},
    "true_preference": {"kind": "ces", "weights": [0.4375, 0.5625], "rho": 2.0},
    "n_grid": [100, 400, 1600, 6400],
    "eval_steps": 16,
}

# n is sized so a 35-second run holds about fifty ops and op_s_tail has a
# real tail (ten ops beyond about p80); so is recovery's single replicate.
GEN_CFG = {
    "version": 1,
    "n": 5000,
    "domain": {"box": {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}},
    "noise": {"constant_flip": {"theta": 0.75}},
    "preference": {"kind": "ces", "weights": [0.25, 0.25, 0.5], "rho": 0.5},
}
# The true preference is a member of this grid, so the fit scores at least as well.
FIT_FAMILY = {"ces": {"rho_grid": [0.5, 1.0, 2.0, 4.0], "weight_steps": 24}}

RECOVERY_CFG = {
    "version": 1,
    "states": 2,
    "truncation": {"denominator_bound": 4, "grid_count": 4},
    "k_grid": [50, 200, 800, 2000],
    "replicates": 1,
    "candidates": {
        "eu_grid": {"states": 2, "prior_steps": 10, "knot_positions": [1 / 3, 2 / 3], "value_steps": 24}
    },
    "true_index": 1000,
    "disagreement_m": 4000,
}

# Small sizes for the benchmark's self-test.
TINY = {
    "consistency": {"family": {"ces": {"rho_grid": [2.0, 4.0], "weight_steps": 16}}, "n_grid": [50, 3200]},
    "gen-fit": {"n": 300},
    "recovery": {
        "truncation": {"denominator_bound": 2, "grid_count": 3},
        "k_grid": [10, 40],
        "candidates": {"eu_grid": {"states": 2, "prior_steps": 4, "knot_positions": [0.5], "value_steps": 6}},
        "true_index": 12,
        "disagreement_m": 200,
    },
}
TINY_FIT_FAMILY = {"ces": {"rho_grid": [0.5, 1.0], "weight_steps": 4}}


REPORT_SCHEMA = json.loads(
    (Path(recovery_lab.__file__).parent / "schemas" / "run_report.schema.json").read_text(encoding="utf-8")
)


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


class Workload:
    """A config set written at set-up, an op, and the checks on its outputs.

    ``records`` and ``pair_checks`` are the work one op does: choice records
    simulated or read and fitted (presented pairs, for recovery), and
    candidate x record comparisons.
    """

    name = ""
    reports: tuple[str, ...] = ("report.json",)
    compared: tuple[str, ...] = ()  # output files a rerun on one seed must reproduce

    def __init__(self, work: Path, tiny: bool = False):
        self.work = work
        self.out = work / "op"
        work.mkdir(parents=True, exist_ok=True)
        self.tiny = tiny

    def _write(self, name: str, cfg: dict) -> str:
        path = self.work / name
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def _config(self, base: dict) -> dict:
        return {**base, **(TINY[self.name] if self.tiny else {})}

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, seed: int, reference: bool = False) -> None:
        """One op; raises if a CLI call exits non-zero."""
        raise NotImplementedError

    def check(self, seed: int) -> list[str]:
        """Problems found in the last op's outputs."""
        problems = []
        for name in self.reports:
            report = json.loads((self.out / name).read_text(encoding="utf-8"))
            try:
                jsonschema.validate(report, REPORT_SCHEMA)
            except jsonschema.ValidationError as exc:
                problems.append(f"{name} fails the run-report schema: {exc.message}")
        return problems + self._check(seed)

    def _check(self, seed: int) -> list[str]:
        raise NotImplementedError

    def snapshot(self) -> dict[str, bytes]:
        return {name: (self.out / name).read_bytes() for name in self.compared}

    def finish(self) -> list[str]:
        """Problems found in the outputs of all ops pooled."""
        return []

    @staticmethod
    def _call(argv: list[str]) -> None:
        code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")


class Consistency(Workload):
    """``consistency`` at one replicate and two threads per op.

    The rerun on the first op's seed runs at one thread, so comparing it
    with the first op checks thread-count invariance.
    """

    name = "consistency"
    compared = ("report.json", "consistency.csv")

    def __init__(self, work: Path, tiny: bool = False):
        super().__init__(work, tiny)
        cfg = self._config(CONSISTENCY_CFG)
        self.config = self._write("consistency.json", cfg)
        self.n_grid = sorted(cfg["n_grid"])
        self.records = sum(self.n_grid)
        grid = len(UtilityFamily.from_dict(cfg["family"], domain_from_dict(cfg["domain"])).members())
        self.pair_checks = grid * self.records
        self.rho_by_n: dict[int, list[float]] = {n: [] for n in self.n_grid}

    def run(self, seed: int, reference: bool = False) -> None:
        self._call(
            ["consistency", "--config", self.config, "--out", str(self.out), "--seed", str(seed),
             "--replicates", "1", "--threads", "1" if reference else "2"]
        )

    def _check(self, seed: int) -> list[str]:
        rows = _read_csv(self.out / "consistency.csv")
        if sorted(int(r[0]) for r in rows) != self.n_grid:
            return [f"consistency.csv has cells {[r[0] for r in rows]}"]
        for r in rows:
            self.rho_by_n[int(r[0])].append(float(r[2]))
        return []

    def finish(self) -> list[str]:
        # c08: pooled over the run's ops, the median rho at the largest n is
        # at most half the median at the smallest.
        def median(values):
            s = sorted(values)
            return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2

        lo, hi = median(self.rho_by_n[self.n_grid[0]]), median(self.rho_by_n[self.n_grid[-1]])
        if hi > 0.5 * lo:
            return [f"c08: median rho {hi!r} at n={self.n_grid[-1]} exceeds half of {lo!r} at n={self.n_grid[0]}"]
        return []


class GenFit(Workload):
    """``gen`` writes a JSONL dataset, then ``fit`` reads and fits it."""

    name = "gen-fit"
    reports = ("gen/report.json", "fit/report.json")
    compared = ("fit/fit.json", "gen/dataset.jsonl")

    def __init__(self, work: Path, tiny: bool = False):
        super().__init__(work, tiny)
        cfg = self._config(GEN_CFG)
        self.gen_cfg = cfg
        self.gen_config = self._write("gen.json", cfg)
        self.dataset = self.out / "gen" / "dataset.jsonl"
        family = TINY_FIT_FAMILY if tiny else FIT_FAMILY
        self.fit_config = self._write(
            "fit.json", {"version": 1, "dataset": str(self.dataset), "family": family}
        )
        self.records = cfg["n"]
        grid = len(UtilityFamily.from_dict(family, domain_from_dict(cfg["domain"])).members())
        self.pair_checks = grid * self.records
        self.truth = WaldUtility.from_dict(cfg["preference"])

    def run(self, seed: int, reference: bool = False) -> None:
        self._call(["gen", "--config", self.gen_config, "--out", str(self.out / "gen"), "--seed", str(seed)])
        self._call(["fit", "--config", self.fit_config, "--out", str(self.out / "fit")])

    def _check(self, seed: int) -> list[str]:
        problems = []
        ds = read_dataset(self.dataset)
        cfg = self.gen_cfg
        expected_meta = {
            "format": "choice-dataset/1",
            "domain": domain_from_dict(cfg["domain"]).to_dict(),
            "noise": noise_from_dict(cfg["noise"]).to_dict(),
            "preference": self.truth.to_dict(),
            "seed": seed,
            "n": cfg["n"],
        }
        if ds.n != cfg["n"] or ds.meta != expected_meta:
            problems.append(f"dataset reads back with n={ds.n} and meta {ds.meta}")
        fit = json.loads((self.out / "fit" / "fit.json").read_text(encoding="utf-8"))
        truth_score = empirical_score(self.truth, ds)
        if fit["score"] < truth_score:
            problems.append(f"fitted score {fit['score']!r} is below the truth's {truth_score!r}")
        return problems


class Recovery(Workload):
    """``recovery`` on one thread over a 2-state universe."""

    name = "recovery"
    compared = ("report.json", "recovery.csv")

    def __init__(self, work: Path, tiny: bool = False):
        super().__init__(work, tiny)
        cfg = self._config(RECOVERY_CFG)
        self.config = self._write("recovery.json", cfg)
        self.k_grid = sorted(cfg["k_grid"])
        self.replicates = cfg["replicates"]
        self.records = self.k_grid[-1] * self.replicates
        self.pair_checks = len(grid_from_config(cfg["candidates"], UNIT)) * self.records

    def run(self, seed: int, reference: bool = False) -> None:
        self._call(
            ["recovery", "--config", self.config, "--out", str(self.out), "--seed", str(seed),
             "--threads", "1"]
        )

    def _check(self, seed: int) -> list[str]:
        # c14: survivors nest exactly as k grows and the truth always survives
        by_rep: dict[int, dict[int, int]] = {}
        for k, rep, survivors, *_ in _read_csv(self.out / "recovery.csv"):
            by_rep.setdefault(int(rep), {})[int(k)] = int(survivors)
        problems = []
        if sorted(by_rep) != list(range(self.replicates)):
            problems.append(f"recovery.csv has replicates {sorted(by_rep)}")
        for rep, cells in sorted(by_rep.items()):
            counts = [cells.get(k, 0) for k in self.k_grid]
            if any(a < b for a, b in zip(counts, counts[1:])) or min(counts) < 1:
                problems.append(f"replicate {rep}: survivors {counts} do not nest or lose the truth")
        return problems


WORKLOADS = {w.name: w for w in (Consistency, GenFit, Recovery)}
