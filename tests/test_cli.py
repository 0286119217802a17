"""CLI contract: exit codes, outputs, strict configs, determinism."""

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab.errors import ConfigError
from recovery_lab.experiments import cli, sweeps
from recovery_lab.experiments.cli import cli_main
from recovery_lab.experiments.report import RunReport, SweepOutput
from test_acceptance import CLI_CONFIGS
from test_noisy_choice import BAD_RECORDS, GOOD_RECORD

CONE = {"cone": {"alpha": 0.1, "M": 1.0, "d": 2}}
BOX = {"box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}
FLIP = {"constant_flip": {"theta": 0.8}}


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def consistency_cfg():
    return {
        "version": 1,
        "seed": 0,
        "domain": CONE,
        "family": {"ces": {"rho_grid": [0.5, 2.0], "weight_steps": 4}},
        "noise": FLIP,
        "true_preference": {"kind": "ces", "weights": [0.5, 0.5], "rho": 2.0},
        "n_grid": [40, 80],
        "replicates": 2,
        "eval_steps": 8,
        "vc_dimension": 2,
    }


class TestConfigHandling:
    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli_main(["bound", "--config", missing]) == 2
        assert missing in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli_main(["frobnicate", "--config", "x"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = consistency_cfg()
        cfg["surprise"] = True
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli_main(["consistency", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "surprise" in capsys.readouterr().err

    def test_version_required(self, tmp_path, capsys):
        cfg = consistency_cfg()
        del cfg["version"]
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli_main(["consistency", "--config", path]) == 2
        assert "version" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = consistency_cfg()
        del cfg["n_grid"]
        path = write_cfg(tmp_path, "c.json", cfg)
        assert cli_main(["consistency", "--config", path]) == 2
        assert "n_grid" in capsys.readouterr().err

    def test_numerical_guard_exit_three(self, tmp_path):
        cfg = {
            "version": 1,
            "states": 1,
            "truncation": {"denominator_bound": 1, "grid_count": 2},
            "k_grid": [50],  # only one pair exists at this truncation
            "candidates": {"eu_grid": {"states": 1, "knot_positions": [0.5], "value_steps": 4}},
            "true_index": 0,
        }
        path = write_cfg(tmp_path, "r.json", cfg)
        assert cli_main(["recovery", "--config", path, "--out", str(tmp_path / "o")]) == 3


class TestOutputs:
    def test_consistency_writes_report_csv_svg(self, tmp_path):
        path = write_cfg(tmp_path, "c.json", consistency_cfg())
        out = tmp_path / "runs"
        assert cli_main(["consistency", "--config", path, "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert (out / "consistency.csv").exists()
        assert (out / "consistency.svg").exists()
        assert (out / "timing.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "consistency"
        assert report["format_version"] == "1"
        csv = (out / "consistency.csv").read_text().splitlines()
        assert csv[0] == "n,replicate,rho,score,bound"

    def test_gen_then_fit_roundtrip(self, tmp_path):
        gen_cfg = {
            "version": 1,
            "seed": 3,
            "n": 60,
            "domain": BOX,
            "noise": FLIP,
            "preference": {"kind": "linear", "weights": [0.25, 0.75]},
        }
        gen_path = write_cfg(tmp_path, "g.json", gen_cfg)
        gen_out = tmp_path / "gen"
        assert cli_main(["gen", "--config", gen_path, "--out", str(gen_out)]) == 0
        ds_path = gen_out / "dataset.jsonl"
        assert ds_path.exists()
        fit_cfg = {
            "version": 1,
            "dataset": str(ds_path),
            "family": {"linear": {"weight_steps": 8}},
        }
        fit_path = write_cfg(tmp_path, "f.json", fit_cfg)
        fit_out = tmp_path / "fit"
        assert cli_main(["fit", "--config", fit_path, "--out", str(fit_out)]) == 0
        fit = json.loads((fit_out / "fit.json").read_text())
        assert 0.0 <= fit["score"] <= 1.0
        assert fit["best"]["kind"] == "linear"

    def test_reports_validate_against_schema(self, tmp_path):
        import jsonschema
        from importlib import resources

        schema = json.loads(
            resources.files("recovery_lab").joinpath("schemas/run_report.schema.json").read_text()
        )
        runs = {
            "bound": {
                "version": 1, "K": 1.0, "C_bar": 1.0, "V": 3, "D": 2, "delta": 0.1,
                "n_grid": [100, 400],
            },
            "consistency": consistency_cfg(),
            "nonid": {"version": 1, "seed": 2, "k_max": 5, "m": 200},
            "theorem2": {"version": 1, "kind": "eu", "k_max": 3},
        }
        for command, cfg in runs.items():
            path = write_cfg(tmp_path, f"{command}.json", cfg)
            out = tmp_path / f"{command}-runs"
            assert cli_main([command, "--config", path, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            jsonschema.validate(report, schema)
            for c in report["cells"]:
                if "q25" in c:
                    assert c["q25"] <= c["q50"] <= c["q75"]

    def test_seed_override_changes_output(self, tmp_path):
        path = write_cfg(tmp_path, "c.json", consistency_cfg())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["consistency", "--config", path, "--out", str(out_a)]) == 0
        assert cli_main(["consistency", "--config", path, "--seed", "99", "--out", str(out_b)]) == 0
        assert (out_a / "consistency.csv").read_bytes() != (out_b / "consistency.csv").read_bytes()

    def test_replicates_override(self, tmp_path):
        path = write_cfg(tmp_path, "c.json", consistency_cfg())
        out = tmp_path / "r"
        assert cli_main(
            ["consistency", "--config", path, "--replicates", "3", "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(c["count"] == 3 for c in report["cells"])


class TestDeterminism:
    def run_twice(self, tmp_path, command, cfg, threads=None):
        path = write_cfg(tmp_path, f"{command}.json", cfg)
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{command}-{tag}"
            argv = [command, "--config", path, "--out", str(out)]
            if threads is not None:
                argv += ["--threads", str(threads)]
            assert cli_main(argv) == 0
            outs.append(out)
        return outs

    def compare_dirs(self, a: Path, b: Path):
        names = {p.name for p in a.iterdir()} - {"timing.txt"}
        assert names == {p.name for p in b.iterdir()} - {"timing.txt"}
        for name in sorted(names):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_consistency_rerun_identical(self, tmp_path):
        a, b = self.run_twice(tmp_path, "consistency", consistency_cfg())
        self.compare_dirs(a, b)

    def test_thread_count_invariance(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, "c.json", consistency_cfg())
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        monkeypatch.setenv("RECOVERY_LAB_THREADS", "1")
        assert cli_main(["consistency", "--config", path, "--out", str(out1)]) == 0
        monkeypatch.setenv("RECOVERY_LAB_THREADS", "8")
        assert cli_main(["consistency", "--config", path, "--out", str(out8)]) == 0
        self.compare_dirs(out1, out8)

    def test_env_var_overrides_flag(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, "c.json", consistency_cfg())
        out = tmp_path / "env"
        monkeypatch.setenv("RECOVERY_LAB_THREADS", "2")
        # flag says 1, env says 2; outputs must be identical either way
        assert cli_main(["consistency", "--config", path, "--out", str(out), "--threads", "1"]) == 0
        assert (out / "report.json").exists()

    def test_nonid_rerun_identical(self, tmp_path):
        cfg = {"version": 1, "seed": 5, "k_max": 10, "m": 500}
        a, b = self.run_twice(tmp_path, "nonid", cfg)
        self.compare_dirs(a, b)


class TestBoundaryValidation:
    GEN = {
        "version": 1,
        "seed": 3,
        "n": 20,
        "domain": BOX,
        "noise": FLIP,
        "preference": {"kind": "linear", "weights": [0.25, 0.75]},
    }

    def assert_config_error(self, capsys, argv, name):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and name in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        for command, cfg in (("gen", self.GEN), ("consistency", consistency_cfg())):
            path = write_cfg(tmp_path, f"{command}.json", cfg)
            argv = [command, "--config", path, "--seed", "-1", "--out", str(tmp_path / "o")]
            self.assert_config_error(capsys, argv, "seed")

    def test_bad_seed_in_config(self, tmp_path, capsys):
        for command, base in (("gen", self.GEN), ("consistency", consistency_cfg())):
            for seed in (-1, 1.5, 2.0, "3", True, None, [1, 2]):
                path = write_cfg(tmp_path, f"{command}.json", {**base, "seed": seed})
                argv = [command, "--config", path, "--out", str(tmp_path / "o")]
                self.assert_config_error(capsys, argv, "seed")

    def test_large_seed_accepted(self, tmp_path):
        path = write_cfg(tmp_path, "gen.json", {**self.GEN, "seed": 2**70 + 5})
        assert cli_main(["gen", "--config", path, "--out", str(tmp_path / "o")]) == 0

    def test_non_integer_thread_count(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, "c.json", consistency_cfg())
        monkeypatch.setenv("RECOVERY_LAB_THREADS", "two")
        argv = ["consistency", "--config", path, "--out", str(tmp_path / "o")]
        self.assert_config_error(capsys, argv, "RECOVERY_LAB_THREADS")

    def test_rejection_cap_exits_three_quickly(self, tmp_path, capsys):
        # alpha * sqrt(2) is just below M: about one try in 10^5 lands in the cone
        cfg = {**self.GEN, "n": 50, "domain": {"cone": {"alpha": 0.7071, "M": 1.0, "d": 2}}}
        path = write_cfg(tmp_path, "g.json", cfg)
        start = time.perf_counter()
        assert cli_main(["gen", "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err == (
            "numerical guard: rejection sampling failed after 10000 tries; "
            "domain parameters look degenerate\n"
        )

    def test_sample_batch_cap_matches_generation(self, tmp_path):
        # about 1.4% of tries land in this cone: both samplers allow 10,000 tries per point
        cone = {"cone": {"alpha": 0.5, "M": 1.0, "d": 3}}
        pref = {"kind": "linear", "weights": [0.25, 0.25, 0.5]}
        gen = {**self.GEN, "n": 2000, "domain": cone, "preference": pref}
        sep = {
            "version": 1, "seed": 0, "domain": cone, "family": {"linear": {"weight_steps": 2}},
            "noise": FLIP, "n_pairs": 2, "m": 2000,
        }
        for command, cfg in (("gen", gen), ("separation", sep)):
            path = write_cfg(tmp_path, f"{command}.json", cfg)
            assert cli_main([command, "--config", path, "--out", str(tmp_path / command)]) == 0

    def test_degenerate_cone_batch_sampling_exits_three(self, tmp_path, capsys):
        # the random shattering trials draw their problems with sample_batch
        cfg = {
            "version": 1, "seed": 0, "domain": {"cone": {"alpha": 0.7071, "M": 1.0, "d": 2}},
            "family": {"linear": {"weight_steps": 2}}, "k": 2, "trials": 1,
        }
        path = write_cfg(tmp_path, "v.json", cfg)
        assert cli_main(["vc", "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "numerical guard: rejection sampling failed after 10000 tries; "
            "domain parameters look degenerate\n"
        )


class TestFitInputs:
    def fit(self, tmp_path, dataset_lines, domain=None):
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(dataset_lines) + "\n", encoding="utf-8")
        cfg = {"version": 1, "dataset": str(data), "family": {"linear": {"weight_steps": 4}}}
        if domain is not None:
            cfg["domain"] = domain
        path = write_cfg(tmp_path, "f.json", cfg)
        return cli_main(["fit", "--config", path, "--out", str(tmp_path / "o")])

    def assert_one_line(self, capsys, *words):
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err and all(w in err for w in words), err

    def test_malformed_records_exit_two_naming_the_line(self, tmp_path, capsys):
        meta = '{"format": "choice-dataset/1", "n": 2}'
        for bad in BAD_RECORDS:
            assert self.fit(tmp_path, [meta, GOOD_RECORD, bad], domain=BOX) == 2, bad
            self.assert_one_line(capsys, "line 3")

    def test_record_dimension_differs_from_config_domain(self, tmp_path, capsys):
        meta = '{"format": "choice-dataset/1", "n": 1}'
        record = '{"chosen": [0.5, 0.25, 0.1], "rejected": [0.25, 0.5, 0.1]}'
        assert self.fit(tmp_path, [meta, record], domain=BOX) == 2
        self.assert_one_line(capsys, "dimension 3")

    def test_missing_domain(self, tmp_path, capsys):
        meta = '{"format": "choice-dataset/1", "n": 1}'
        assert self.fit(tmp_path, [meta, GOOD_RECORD]) == 2
        self.assert_one_line(capsys, "domain")

    def test_malformed_config_domain(self, tmp_path, capsys):
        meta = '{"format": "choice-dataset/1", "n": 1}'
        for domain in ({"box": {}}, {"cone": {"alpha": 0.1}}, {"sphere": {}}, "box", {"box": None}):
            assert self.fit(tmp_path, [meta, GOOD_RECORD], domain=domain) == 2, domain
            self.assert_one_line(capsys, "domain")


def assert_one_line_config_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err and all(w in err for w in words), err


RECOVERY = CLI_CONFIGS["recovery"]
EU_GRID = RECOVERY["candidates"]["eu_grid"]

# field overrides -> the field the one-line message names
BAD_RECOVERY = [
    ({"replicates": 0}, "replicates"),
    ({"true_index": 11}, "true_index"),  # the grid has C(11, 1) = 11 members
    ({"true_index": -1}, "true_index"),
    ({"k_grid": []}, "k_grid"),
    ({"k_grid": [-1, 5]}, "k_grid"),
    ({"disagreement_m": 0}, "disagreement_m"),
    ({"candidates": {"eu_grid": {**EU_GRID, "states": 2}}}, "candidates"),
    ({"candidates": {"eu_grid": {**EU_GRID, "value_steps": 1}}}, "candidates"),
    ({"states": 0}, "states"),
    ({"truncation": {"denominator_bound": 2, "grid_count": 1}}, "truncation"),
    ({"truncation": {"denominator_bound": 0, "grid_count": 3}}, "truncation"),
]


class TestRecoveryConfig:
    @pytest.mark.parametrize("over, field", BAD_RECOVERY)
    def test_bad_field_exits_two_naming_it(self, tmp_path, capsys, over, field):
        path = write_cfg(tmp_path, "r.json", {**RECOVERY, **over})
        assert cli_main(["recovery", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_config_error(capsys, field)
        assert not (tmp_path / "o").exists()

    def test_replicates_flag_zero(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "r.json", RECOVERY)
        argv = ["recovery", "--config", path, "--replicates", "0", "--out", str(tmp_path / "o")]
        assert cli_main(argv) == 2
        assert_one_line_config_error(capsys, "replicates")

    def test_boundary_values_run(self, tmp_path):
        # the last grid member, the last available pair and a single draw are valid
        cfg = {**RECOVERY, "true_index": 10, "k_grid": [0, 15], "disagreement_m": 1, "replicates": 1}
        path = write_cfg(tmp_path, "r.json", cfg)
        assert cli_main(["recovery", "--config", path, "--out", str(tmp_path / "o")]) == 0


UNIQUENESS_GRID = CLI_CONFIGS["uniqueness"]["candidates"]["eu_grid"]


class TestTruncationAndCandidates:
    @pytest.mark.parametrize(
        "command, over, words",
        [
            ("recovery", {"truncation": {"denominator_bound": 2, "grid_count": 1}},
             ["truncation", "grid_count"]),
            ("theorem2", {"act_truncation": {"denominator_bound": 1, "grid_count": 1}},
             ["act_truncation", "grid_count"]),
            ("uniqueness", {"schedule": [[1, 2], [2, 1]]}, ["schedule[1]", "grid_count"]),
            ("uniqueness", {"schedule": [[0, 2]]}, ["schedule[0]", "denominator_bound"]),
            ("uniqueness", {"candidates": {"eu_grid": {**UNIQUENESS_GRID, "states": 1}}},
             ["candidates"]),
            ("uniqueness", {"candidates": {"eu_grid": {**UNIQUENESS_GRID, "value_steps": 1}}},
             ["candidates"]),
            ("uniqueness", {"states": 0}, ["states"]),
        ],
    )
    def test_bad_level_or_grid_exits_two(self, tmp_path, capsys, command, over, words):
        path = write_cfg(tmp_path, "c.json", {**CLI_CONFIGS[command], **over})
        assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_config_error(capsys, *words)


class TestNumbersAndKinds:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, literal):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({**CLI_CONFIGS["bound"], "K": "@"}).replace('"@"', literal))
        assert cli_main(["bound", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert_one_line_config_error(capsys, "non-finite", literal)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["theorem2", "ce-continuity"])
    def test_unknown_kind_exits_two(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path, "c.json", {**CLI_CONFIGS[command], "kind": "quadratic"})
        assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_config_error(capsys, "kind", "quadratic")


GEN = CLI_CONFIGS["gen"]

# (subcommand, field overrides, words the one-line message names)
BAD_GEN_FIT = [
    ("gen", {"domain": {"box": {"lo": [0.0, 1.0], "hi": [1.0, 1.0]}}}, ["domain", "lo < hi"]),
    ("gen", {"n": -5}, ["n must be"]),
    ("gen", {"n": "abc"}, ["n must be", "abc"]),
    ("gen", {"noise": {"constant_flip": {"theta": 0.4}}}, ["noise", "theta"]),
    ("gen", {"preference": {"kind": "linear", "weights": [0.2, 0.3, 0.5]}},
     ["preference", "dimension 3"]),
    ("gen", {"preference": {"kind": "ces", "weights": [0.5, 0.5], "rho": "abc"}},
     ["preference", "abc"]),
    ("gen", {"domain": {"box": {"lo": [-1.0, 0.0], "hi": [1.0, 1.0]}},
             "preference": {"kind": "ces", "weights": [0.5, 0.5], "rho": 2.0}},
     ["preference", "nonnegative"]),
    ("fit", {"refinements": "abc"}, ["refinements", "abc"]),
    ("fit", {"refinements": -1}, ["refinements", "-1"]),
    ("fit", {"family": {}}, ["family"]),
    ("fit", {"family": {"quadratic": {"weight_steps": 4}}}, ["family", "quadratic"]),
    ("fit", {"family": {"ces": {"rho_grid": [], "weight_steps": 4}}}, ["family", "rho grid"]),
    ("fit", {"family": {"ces": {"rho_grid": [0.0, 1.0], "weight_steps": 4}}}, ["family", "rho_grid"]),
    ("fit", {"family": {"ces": {"rho_grid": ["a"], "weight_steps": 4}}}, ["family", "rho_grid"]),
    ("fit", {"family": {"linear": {"weight_steps": 0}}}, ["family", "weight_steps"]),
]


class TestGenFitConfig:
    @pytest.mark.parametrize("command, over, words", BAD_GEN_FIT)
    def test_bad_field_exits_two_naming_it(self, tmp_path, capsys, command, over, words):
        cfg = GEN
        if command == "fit":
            assert cli_main(["gen", "--config", write_cfg(tmp_path, "g.json", GEN),
                             "--out", str(tmp_path / "ds")]) == 0
            dataset = str(tmp_path / "ds" / "dataset.jsonl")
            cfg = {"version": 1, "dataset": dataset, "family": {"linear": {"weight_steps": 4}}}
        path = write_cfg(tmp_path, "c.json", {**cfg, **over})
        assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert_one_line_config_error(capsys, *words)
        assert not (tmp_path / "o").exists()


# One-field overrides of CLI_CONFIGS -> the field the one-line message names.
BAD_CONFIGS = [
    ("consistency", {"n_grid": ["abc"]}, "n_grid"),
    ("consistency", {"n_grid": [0, 100]}, "n_grid"),
    ("consistency", {"n_grid": []}, "n_grid"),
    ("consistency", {"replicates": 0}, "replicates"),
    ("consistency", {"replicates": True}, "replicates"),
    ("consistency", {"family": {"ces": {"rho_grid": [0.5, 2.0], "weight_steps": 0}}}, "family"),
    ("consistency", {"family": {}}, "family"),
    ("consistency", {"noise": {"constant_flip": {"theta": 0.4}}}, "noise"),
    ("consistency", {"delta": 0}, "delta"),
    ("consistency", {"exponent_d": 0}, "exponent_d"),
    ("consistency", {"domain": {"cone": {"alpha": 0.1, "d": 2}}}, "domain"),
    ("consistency", {"true_preference": {"kind": "x", "weights": [0.5, 0.5]}}, "true_preference"),
    ("consistency", {"eval_steps": 0}, "eval_steps"),
    ("vc", {"k": 0}, "k"),
    ("vc", {"trials": 0}, "trials"),
    ("vc", {"family": {"quadratic": {"weight_steps": 2}}}, "family"),
    ("vc", {"proposals": [[[1.0, 0.0]]]}, "proposals"),
    ("separation", {"m": 0}, "m"),
    ("separation", {"n_pairs": 0}, "n_pairs"),
    ("separation", {"family": {"quadratic": {"weight_steps": 2}}}, "family"),
    ("nonid", {"m": 0}, "m"),
    ("nonid", {"state_prior": "x"}, "state_prior"),
    ("nonid", {"state_prior": [0.5, 0.6]}, "state_prior"),
    ("nonid", {"prize_values": [0.0, 10.0]}, "prize_values"),
    ("nonid", {"k_max": -1}, "k_max"),
    ("theorem2", {"act_truncation": {"denominator_bound": 2}}, "act_truncation"),
    ("theorem2", {"k_max": -1}, "k_max"),
    ("theorem2", {"z_steps": 0}, "z_steps"),
    ("ce-continuity", {"k_max": "abc"}, "k_max"),
    ("ce-continuity", {"k_max": -1}, "k_max"),
    ("bound", {"K": 0}, "K"),
    ("bound", {"V": 0}, "V"),
    ("bound", {"n_grid": [0]}, "n_grid"),
    ("bound", {"n_grid": []}, "n_grid"),
    ("bound", {"delta": 2}, "delta"),
    ("uniqueness", {"schedule": [[1]]}, "schedule[0]"),
    ("uniqueness", {"schedule": []}, "schedule"),
    ("uniqueness", {"interval": [1, 0]}, "interval"),
    ("recovery", {"interval": [1, 0]}, "interval"),
    ("recovery", {"interval": "x"}, "interval"),
    ("recovery", {"k_grid": ["a"]}, "k_grid"),
    ("recovery", {"true_index": "a"}, "true_index"),
    ("recovery", {"candidates": {}}, "candidates"),
    ("recovery", {"truncation": {}}, "truncation"),
    ("recovery", {"replicates": True}, "replicates"),
    ("gen", {"n": 1.5}, "n"),
    ("gen", {"n": "7"}, "n"),
    # counts inside descriptors are checked, not truncated
    ("consistency", {"domain": {"cone": {"alpha": 0.1, "M": 1.0, "d": 2.5}}}, "domain"),
    ("gen", {"domain": {"cone": {"alpha": 0.1, "M": 1.0, "d": 2.5}}}, "domain"),
    ("consistency", {"family": {"ces": {"rho_grid": [0.5, 2.0], "weight_steps": 4.7}}}, "family"),
    ("recovery", {"candidates": {"eu_grid": {"states": 1, "knot_positions": [0.5], "value_steps": 12.9}}},
     "candidates"),
    ("uniqueness", {"candidates": {"eu_grid": {**UNIQUENESS_GRID, "prior_steps": 1.5}}}, "candidates"),
    ("recovery", {"candidates": {"eu_grid": {"states": 1, "prior_steps": 1.5, "knot_positions": [0.5],
                                             "value_steps": 12}}}, "candidates"),
    # a cone's one-step lattice is only the origin, where every rho is 0
    ("consistency", {"eval_steps": 1}, "eval_steps"),
]


def run_cli(tmp_path, command, cfg):
    path = write_cfg(tmp_path, "c.json", cfg)
    return cli_main([command, "--config", path, "--out", str(tmp_path / "o")])


class TestFieldTables:
    @pytest.mark.parametrize("command, over, field", BAD_CONFIGS)
    def test_bad_field_exits_two_naming_it(self, tmp_path, capsys, command, over, field):
        assert run_cli(tmp_path, command, {**CLI_CONFIGS[command], **over}) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} ") and len(err.splitlines()) == 1, err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from([(c, f) for c, cfg in CLI_CONFIGS.items() for f in cfg]),
        value=st.sampled_from([None, True, False, "abc", [], {}, -1, 0, 1.5, [[1, 2], [3]], [[0.5]]]),
    )
    def test_one_malformed_field_never_escapes_the_contract(self, case, value):
        command, field = case
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(Path(tmp), command, {**CLI_CONFIGS[command], field: value})
        assert code in (0, 2, 3) and len(err.getvalue().splitlines()) <= 1, err.getvalue()

    def test_box_lattice_at_one_step_is_valid(self, tmp_path):
        cfg = {**CLI_CONFIGS["consistency"], "domain": BOX, "eval_steps": 1,
               "true_preference": {"kind": "linear", "weights": [0.5, 0.5]}}
        assert run_cli(tmp_path, "consistency", cfg) == 0

    @pytest.mark.parametrize("command", sorted(c for c, (_, t, _) in cli._REGISTRY.items()
                                               if "replicates" not in t))
    def test_replicates_flag_without_the_field_exits_two(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path, "c.json", CLI_CONFIGS.get(command, {"version": 1}))
        argv = [command, "--config", path, "--replicates", "3", "--out", str(tmp_path / "o")]
        assert cli_main(argv) == 2
        assert_one_line_config_error(capsys, "--replicates", command)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", sorted(cli._REGISTRY))
    def test_help_lists_every_field_with_default_and_bound(self, capsys, command):
        assert cli_main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for name, field in cli._REGISTRY[command][1].items():
            assert field.help(name) in out.splitlines()
        assert "  seed: an integer >= 0 (default 0)" in out.splitlines()

    def test_help_shows_a_default_and_a_bound(self, capsys):
        assert cli_main(["recovery", "--help"]) == 0
        out = capsys.readouterr().out
        assert "  replicates: an integer >= 1 (default 3)" in out
        assert "  states: an integer >= 1 (required)" in out

    def test_handlers_take_raw_dicts_and_check_them(self):
        with pytest.raises(ConfigError, match="n_grid"):
            sweeps.run_bound({**CLI_CONFIGS["bound"], "n_grid": []})
        with pytest.raises(ConfigError, match="states is missing"):
            sweeps.run_dense_uniqueness_check({"schedule": [[1, 2]]})


class TestPerfbenchHooks:
    """What perfbench/spans.py patches by name must stay where it looks."""

    @pytest.mark.parametrize("command", ["gen", "fit", "consistency", "recovery"])
    def test_registry_holds_the_named_handler(self, command):
        assert cli._REGISTRY[command][0] is getattr(sweeps, f"run_{command}")

    def test_swapped_handler_and_loader_are_the_ones_that_run(self, tmp_path, monkeypatch):
        calls = []
        real_handler, real_loader = cli._REGISTRY["bound"][0], cli.load_config

        def handler(cfg):
            calls.append("handler")
            return real_handler(cfg)

        def loader(*args):
            calls.append("load_config")
            return real_loader(*args)

        monkeypatch.setitem(cli._REGISTRY, "bound", (handler, *cli._REGISTRY["bound"][1:]))
        monkeypatch.setattr(cli, "load_config", loader)
        assert run_cli(tmp_path, "bound", CLI_CONFIGS["bound"]) == 0
        assert calls == ["load_config", "handler"]

    def test_recovery_builds_its_candidate_grid_once(self, tmp_path, monkeypatch):
        calls = []
        real = sweeps.grid_from_config

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sweeps, "grid_from_config", counted)
        assert run_cli(tmp_path, "recovery", CLI_CONFIGS["recovery"]) == 0
        assert len(calls) == 1


def test_unrenderable_report_leaves_no_directory(tmp_path):
    report = RunReport("bound", {}, {}, {}, [{"cell": 1, "bound": math.nan}])
    with pytest.raises(ValueError, match="NaN"):
        SweepOutput(report, csv_header="n,bound", csv_rows=[[1, 0.5]]).write(tmp_path / "o")
    assert not (tmp_path / "o").exists()
