"""Noise models, data generation determinism, and dataset serialization."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from recovery_lab.errors import DatasetFormatError, ShapeMismatchError
from recovery_lab.experiments.cli import cli_main
from recovery_lab.noisy_choice import (
    BoundedResponse,
    ConstantFlip,
    Dataset,
    dataset_text,
    generate_dataset,
    noise_from_dict,
    q_eval,
    q_eval_batch,
    read_dataset,
    sample_problem,
    write_dataset,
)
from recovery_lab.wald_env import BoxDomain, ConeDomain, WaldUtility
from test_acceptance import CLI_CONFIGS

BOX = BoxDomain.unit(2)
U = WaldUtility("linear", (0.3, 0.7))


def same_records(long: Dataset, short: Dataset) -> bool:
    """The first short.n records of long equal short's, bit for bit."""
    m = short.n
    return np.array_equal(long.chosen[:m], short.chosen) and np.array_equal(
        long.rejected[:m], short.rejected
    )


class TestNoiseModels:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConstantFlip(0.5)
        with pytest.raises(ValueError):
            ConstantFlip(1.0)
        with pytest.raises(ValueError):
            BoundedResponse(0.9, 0.6, 1.0)
        with pytest.raises(ValueError):
            BoundedResponse(0.6, 0.9, 0.0)

    def test_constant_flip_on_strict_pair(self):
        noise = ConstantFlip(0.75)
        assert q_eval(noise, U, np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 0.75

    def test_indifference_rule(self):
        for noise in (ConstantFlip(0.75), BoundedResponse(0.6, 0.9, 0.5)):
            x = np.array([0.25, 0.5])
            y = np.array([0.5, 0.25])
            # w = (0.3, 0.7): u(x) = 0.425, u(y) = 0.325 -- build a true tie instead
            u = WaldUtility("linear", (0.5, 0.5))
            assert q_eval(noise, u, x, y) == 0.5

    def test_bounded_response_formula(self):
        noise = BoundedResponse(0.6, 0.9, 0.5)
        x = np.array([1.0, 1.0])
        y = np.array([0.5, 0.5])
        want = 0.6 + 0.3 * math.tanh(1.0)
        assert q_eval(noise, U, x, y) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.82848, abs=5e-6)

    def test_exact_complement(self):
        rng = np.random.default_rng(0)
        for noise in (ConstantFlip(0.75), BoundedResponse(0.6, 0.9, 0.5)):
            for _ in range(1000):
                x, y = BOX.sample(rng), BOX.sample(rng)
                assert q_eval(noise, U, x, y) + q_eval(noise, U, y, x) == 1.0

    def test_floor_above_half(self):
        rng = np.random.default_rng(1)
        for noise in (ConstantFlip(0.75), BoundedResponse(0.6, 0.9, 0.5)):
            for _ in range(1000):
                x, y = BOX.sample(rng), BOX.sample(rng)
                if U.value(x) > U.value(y):
                    assert q_eval(noise, U, x, y) >= noise.floor > 0.5

    def test_batch_matches_scalar_on_same_utilities(self):
        rng = np.random.default_rng(2)
        vx = rng.uniform(0, 1, 200)
        vy = rng.uniform(0, 1, 200)
        vy[::10] = vx[::10]  # include exact ties
        for noise in (ConstantFlip(0.75), BoundedResponse(0.6, 0.9, 0.5)):
            got = q_eval_batch(noise, vx, vy)
            gaps = np.abs(vx - vy)  # Python floats below: a scalar gap is a batch of one
            assert np.array_equal(noise.strict_prob(gaps), [noise.strict_prob(g) for g in gaps.tolist()])
            for i in range(200):
                if vx[i] == vy[i]:
                    want = 0.5
                elif vx[i] > vy[i]:
                    want = noise.strict_prob(vx[i] - vy[i])
                else:
                    want = 1.0 - noise.strict_prob(vy[i] - vx[i])
                assert got[i] == want

    def test_descriptor_roundtrip(self):
        for noise in (ConstantFlip(0.75), BoundedResponse(0.6, 0.9, 0.5)):
            assert noise_from_dict(noise.to_dict()) == noise


class TestSampleProblem:
    def test_reproducible(self):
        x1, y1 = sample_problem(BOX, np.random.default_rng(7))
        x2, y2 = sample_problem(BOX, np.random.default_rng(7))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_marginals_uniform_chi_square(self):
        rng = np.random.default_rng(8)
        n = 10_000
        xs = np.array([sample_problem(BOX, rng)[0] for _ in range(n)])
        for axis in range(2):
            counts, _ = np.histogram(xs[:, axis], bins=8, range=(0, 1))
            stat = ((counts - n / 8) ** 2 / (n / 8)).sum()
            # 99% chi-square critical value with 7 dof
            assert stat < stats.chi2.ppf(0.99, df=7)

    def test_independence_clt_bound(self):
        rng = np.random.default_rng(9)
        n = 10_000
        pairs = [sample_problem(BOX, rng) for _ in range(n)]
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        for i in range(2):
            for j in range(2):
                r = np.corrcoef(xs[:, i], ys[:, j])[0, 1]
                assert abs(r) <= 3 / np.sqrt(n)


class TestGenerateDataset:
    def test_empty(self):
        ds = generate_dataset(BOX, U, ConstantFlip(0.75), 0, seed=0)
        assert ds.n == 0
        assert ds.meta["n"] == 0

    def test_chosen_and_rejected_shapes_must_agree(self):
        with pytest.raises(ShapeMismatchError):
            Dataset(np.zeros((3, 2)), np.zeros((3, 3)), {"n": 3})
        with pytest.raises(ShapeMismatchError):
            Dataset(np.zeros(3), np.zeros(3), {"n": 3})

    def test_high_accuracy_limit(self):
        ds = generate_dataset(BOX, U, ConstantFlip(0.999), 1000, seed=1)
        good = sum(U.value(c) >= U.value(r) for c, r in zip(ds.chosen, ds.rejected))
        assert good / 1000 >= 0.99

    def test_choice_frequency_three_sigma(self):
        n = 20_000
        theta = 0.75
        ds = generate_dataset(BOX, U, ConstantFlip(theta), n, seed=2)
        freq = np.mean(
            U.value_batch(ds.chosen) > U.value_batch(ds.rejected)
        )
        sigma = math.sqrt(theta * (1 - theta) / n)
        assert abs(freq - theta) <= 3 * sigma

    def test_deterministic_bytes(self, tmp_path):
        a = generate_dataset(BOX, U, BoundedResponse(0.6, 0.9, 0.5), 50, seed=3)
        b = generate_dataset(BOX, U, BoundedResponse(0.6, 0.9, 0.5), 50, seed=3)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(a, pa)
        write_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_prefix_stability(self):
        small = generate_dataset(BOX, U, ConstantFlip(0.75), 20, seed=4)
        big = generate_dataset(BOX, U, ConstantFlip(0.75), 40, seed=4)
        assert same_records(big, small)

    def test_works_on_cone(self):
        cone = ConeDomain(0.1, 1.0, 2)
        ds = generate_dataset(cone, WaldUtility("ces", (0.5, 0.5), rho=2.0), ConstantFlip(0.75), 100, seed=5)
        assert all(cone.contains(c) for c in ds.chosen)


GOOD_RECORD = '{"chosen": [0.5, 0.25], "rejected": [0.25, 0.5]}'
# each follows GOOD_RECORD in a dataset whose meta line has no domain
BAD_RECORDS = [
    '{"chosen": ["a", 0.5], "rejected": [0.25, 0.5]}',
    '{"chosen": [true, 0.5], "rejected": [0.25, 0.5]}',
    '{"chosen": 0.5, "rejected": [0.25, 0.5]}',
    '{"chosen": [[0.5], 0.5], "rejected": [0.25, 0.5]}',
    '{"chosen": [0.5, 0.25, 0.1], "rejected": [0.25, 0.5]}',
    '{"chosen": [0.5, 0.25, 0.1], "rejected": [0.25, 0.5, 0.1]}',
    '{"chosen": [NaN, 0.5], "rejected": [0.25, 0.5]}',
    '{"chosen": [1e400, 0.5], "rejected": [0.25, 0.5]}',
    '{"chosen": [1' + "0" * 400 + ', 0.5], "rejected": [0.25, 0.5]}',
    '{"chosen": [0.5, 0.25]}',
    "[0.5, 0.25]",
    '{"chosen": [0.5, 0.25], "rejected": [0.25, 0.5]',
]


class TestSerialization:
    def test_roundtrip_identity(self, tmp_path):
        ds = generate_dataset(BOX, U, ConstantFlip(0.75), 3, seed=6)
        p = tmp_path / "ds.jsonl"
        write_dataset(ds, p)
        back = read_dataset(p)
        assert same_records(back, ds) and back.n == ds.n
        assert back.meta == ds.meta

    def test_reread_dataset_fits_identically(self, tmp_path):
        from recovery_lab.estimation import erm_fit
        from recovery_lab.wald_env import UtilityFamily

        family = UtilityFamily("linear", BOX, weight_steps=8)
        ds = generate_dataset(BOX, U, BoundedResponse(0.6, 0.9, 0.5), 120, seed=10)
        p = tmp_path / "ds.jsonl"
        write_dataset(ds, p)
        assert erm_fit(family, read_dataset(p)) == erm_fit(family, ds)

    def test_seventeen_digit_floats_roundtrip(self, tmp_path):
        ds = Dataset(
            chosen=np.empty((0, 2)),
            rejected=np.empty((0, 2)),
            meta={"format": "choice-dataset/1", "n": 0, "x": 0.1 + 0.2},
        )
        p = tmp_path / "ds.jsonl"
        write_dataset(ds, p)
        assert read_dataset(p).meta["x"] == 0.1 + 0.2

    def test_truncated_line_names_line_number(self, tmp_path):
        ds = generate_dataset(BOX, U, ConstantFlip(0.75), 4, seed=7)
        p = tmp_path / "ds.jsonl"
        write_dataset(ds, p)
        text = p.read_text().splitlines()
        text[4] = text[4][: len(text[4]) // 2]  # corrupt record on line 5
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert err.value.line == 5
        assert "line 5" in str(err.value)

    def test_dimension_mismatch_detected(self, tmp_path):
        ds = generate_dataset(BOX, U, ConstantFlip(0.75), 2, seed=8)
        p = tmp_path / "ds.jsonl"
        write_dataset(ds, p)
        lines = p.read_text().splitlines()
        lines[1] = '{"chosen": [0.1], "rejected": [0.2]}'
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(p)

    @pytest.mark.parametrize("bad", BAD_RECORDS)
    def test_malformed_record_names_its_line(self, tmp_path, bad):
        p = tmp_path / "ds.jsonl"
        p.write_text(f'{{"format": "choice-dataset/1", "n": 2}}\n{GOOD_RECORD}\n{bad}\n')
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "domain", [{"box": {}}, {"cone": {"alpha": 2.0, "M": 1.0, "d": 2}}, [1]]
    )
    def test_malformed_meta_domain_names_line_one(self, tmp_path, domain):
        p = tmp_path / "ds.jsonl"
        meta = {"format": "choice-dataset/1", "n": 1, "domain": domain}
        p.write_text(f"{json.dumps(meta)}\n{GOOD_RECORD}\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        assert err.value.line == 1

    def test_count_mismatch_detected(self, tmp_path):
        ds = generate_dataset(BOX, U, ConstantFlip(0.75), 3, seed=9)
        p = tmp_path / "ds.jsonl"
        write_dataset(ds, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(p)


def reference_dataset(domain, pref, noise, n, seed) -> Dataset:
    """The per-record generator the batch path replaced, kept as its oracle."""
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    chosen_rows, rejected_rows = [], []
    for i in range(n):
        rng = np.random.default_rng([*base, i])
        x, y = sample_problem(domain, rng)
        p = q_eval(noise, pref, x, y)
        if rng.uniform() < p:
            chosen, rejected = x, y
        else:
            chosen, rejected = y, x
        chosen_rows.append(chosen.tolist())
        rejected_rows.append(rejected.tolist())
    meta = {
        "format": "choice-dataset/1",
        "domain": domain.to_dict(),
        "noise": noise.to_dict(),
        "preference": pref.to_dict(),
        "seed": list(seed) if isinstance(seed, (list, tuple)) else seed,
        "n": n,
    }
    shape = (n, domain.dim)
    chosen, rejected = np.array(chosen_rows).reshape(shape), np.array(rejected_rows).reshape(shape)
    return Dataset(chosen, rejected, meta)


SETTINGS = {
    "box": (BoxDomain((-1.0, 0.5, 2.0), (0.25, 0.75, 5.0)), WaldUtility("linear", (0.2, 0.3, 0.5))),
    "cone": (ConeDomain(0.1, 1.0, 2), WaldUtility("ces", (0.4375, 0.5625), rho=2.0)),
}
NOISES = {
    "flip": (ConstantFlip(0.75), 11),
    "bounded": (BoundedResponse(0.6, 0.9, 0.5), [3, 1600, 2]),
}


class TestBatchMatchesScalarLoop:
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 5000])
    @pytest.mark.parametrize("noise_name", sorted(NOISES))
    @pytest.mark.parametrize("domain_name", sorted(SETTINGS))
    def test_dataset_bytes(self, domain_name, noise_name, n):
        domain, pref = SETTINGS[domain_name]
        noise, seed = NOISES[noise_name]
        got = dataset_text(generate_dataset(domain, pref, noise, n, seed))
        assert got == dataset_text(reference_dataset(domain, pref, noise, n, seed))

    def test_low_acceptance_cone(self):
        # about one try in a hundred is accepted: look-ahead blocks grow and split
        cone = ConeDomain(0.7, 1.0, 2)
        pref = WaldUtility("linear", (0.5, 0.5))
        args = (cone, pref, BoundedResponse(0.6, 0.9, 0.5), 300, [8, 9])
        assert dataset_text(generate_dataset(*args)) == dataset_text(reference_dataset(*args))

    @settings(max_examples=15, deadline=None)
    @given(small=st.integers(1000, 1100), extra=st.integers(0, 1100), seed=st.integers(0, 2**40))
    def test_prefix_stability_across_chunks(self, small, extra, seed):
        cone, pref = SETTINGS["cone"]
        noise = ConstantFlip(0.75)
        short = generate_dataset(cone, pref, noise, small, [seed, 1])
        long = generate_dataset(cone, pref, noise, small + extra, [seed, 1])
        assert same_records(long, short)


def _without(command, field):
    return command, {k: v for k, v in CLI_CONFIGS[command].items() if k != field}


# The recovery benchmark's config (perfbench/workloads.py): 2,783 EU
# candidates over a 1,225-act universe, most of them eliminated early.
RECOVERY_BENCH_CFG = {
    "version": 1, "states": 2,
    "truncation": {"denominator_bound": 4, "grid_count": 4},
    "k_grid": [50, 200, 800, 2000], "replicates": 1,
    "candidates": {
        "eu_grid": {"states": 2, "prior_steps": 10, "knot_positions": [1 / 3, 2 / 3], "value_steps": 24}
    },
    "true_index": 1000, "disagreement_m": 4000,
}

# case -> (command, config): every subcommand at CLI_CONFIGS, plus the random
# shattering search that proposals and a fixed vc_dimension skip, plus the
# recovery benchmark's config at two seeds
GOLDEN_CASES = {
    **{command: (command, cfg) for command, cfg in CLI_CONFIGS.items()},
    "vc_random": _without("vc", "proposals"),
    "consistency_vc": _without("consistency", "vc_dimension"),
    **{f"recovery_bench_seed{s}": ("recovery", {**RECOVERY_BENCH_CFG, "seed": s}) for s in (1, 2)},
}


def run_golden_case(tmp_path, case):
    """Run one case through the CLI and return its output directory."""
    if case == "fit":
        dataset = run_golden_case(tmp_path, "gen") / "dataset.jsonl"
        command, cfg = "fit", {
            "version": 1, "dataset": str(dataset), "family": {"linear": {"weight_steps": 8}},
        }
    else:
        command, cfg = GOLDEN_CASES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / case
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 0
    return out


# SHA-256 of outputs, recorded from the per-record generator, from the
# per-problem shattering search and from the full-matrix recovery sweep
# (fit's report.json echoes the dataset path)
GOLDEN = {
    ("bound", "bound.csv"): "1252a0ea133bce746b6faac0c3a4e15203b050bbb695c57013aa79a3b1de84f9",
    ("bound", "bound.svg"): "6c43888798ff2453a778c5fb5af123e7c3eb6bec97a18c629e5058ae8f82360e",
    ("bound", "report.json"): "9406d0ad10a43b29169a36de1fe360f3cada07cb0169d5638eb1d25339e315cf",
    ("ce-continuity", "ce-continuity.csv"): "b65f8f3cb13b6041a8bf0be7c140fe7336202e3da16bffa60c50fcb24cf52bfa",
    ("ce-continuity", "ce-continuity.svg"): "a306b4d851cd2949d0660abb2855363ce8b0eac05e2faf4abe3aa7e329433b4b",
    ("ce-continuity", "report.json"): "d35a7ce960bc1a23ef59350948935d3e63e9375413c71be53df40c48ebae94ee",
    ("consistency", "consistency.csv"): "fa1ddbb8e857d6959325039b7bacb20404e1ecd1b916f3db36ed3ed20594956a",
    ("consistency", "consistency.svg"): "3bb494a44738c610419fd395da4596118c9211e3d2d5749cac14b1d03015af18",
    ("consistency", "report.json"): "1d277ccbcf39c87dd1e658b81b9e1e08068bfd8fbd3fea64cef8032af4d4741c",
    ("consistency_vc", "consistency.csv"): "6505b941291b8c45ff6fb004090c14524cce915b185da3038787d1e39423cfa9",
    ("consistency_vc", "consistency.svg"): "3bb494a44738c610419fd395da4596118c9211e3d2d5749cac14b1d03015af18",
    ("consistency_vc", "report.json"): "415b0a6435d35b2d3b0e96eb18b94166d596209b68fd30fbe843c6c60c2e0011",
    ("fit", "fit.json"): "ffb966040e48d0c5ce2f0b5c3c1d58f6705fb9f42af74cdd31ace09de00f0e7c",
    ("gen", "dataset.jsonl"): "ef5256a84569dc3362f9703718a7f27238048ed84e9ac9c95af3f3fd45b3d0ce",
    ("gen", "report.json"): "5eed98f251830a79b170a3f8804cb4633eb779d10f02f9ecc3678317c05defe1",
    ("nonid", "nonid.csv"): "0925926cfcfb027bb3271758faf7da811e6396785de93930dd812732bf6efebf",
    ("nonid", "nonid.svg"): "e930c551fda7a4636f2138f9d2240f897ce3308df04dfaa4b328fa01a9fdfc39",
    ("nonid", "report.json"): "c972557de59557d42afe76ad3ee5b77a3b8fff742e9e9cd38dde41d3b46ec06a",
    ("recovery", "recovery.csv"): "4a9d007c4d3c7e107373ba4237915e5c748920804bfd148caf9a49a415410b28",
    ("recovery", "recovery.svg"): "d3a593046a8aa3867491c14d917d5ae6bae615858c40be3e7128039930de5cd1",
    ("recovery", "report.json"): "edba60a99c5250f13234e2070229e5996a99b8c7a7df4f9f7504d78feba81fe7",
    ("recovery_bench_seed1", "recovery.csv"): "654fbb46f3a48cc7f3363654c91a4e151c9a2111bee0f2391e2e8fece215923d",
    ("recovery_bench_seed1", "recovery.svg"): "f7bbf1cdaf23723f3bd29b488ba3d83dd6379bcbdeab81af470d5e5c57e72510",
    ("recovery_bench_seed1", "report.json"): "07ba152615c569eca4cf67aef377d263babe7c8f05bde41dd13b95b1d4f5a1c9",
    ("recovery_bench_seed2", "recovery.csv"): "5277ea3f324cdd1643d2e899d23c2a58f22dc308f5d74507a2421523017690f8",
    ("recovery_bench_seed2", "recovery.svg"): "4e97ffc84e48c7b74707ea66bb5c776b4954723b91864c0bfda68cf75ef0e094",
    ("recovery_bench_seed2", "report.json"): "bbf4d66dc804b6bbcdcc3363c9e871e7a2b99ecabea8b419a92815230b814541",
    ("separation", "report.json"): "95a3ac1a8242dfb29c0ee63c6793c9c789fb48fbddfaeb7143899753a7bb8732",
    ("separation", "separation.csv"): "a1974ecc4c96dac5e484afca96b176621128c6cf8712aeb78c25eefe6fd7593a",
    ("separation", "separation.svg"): "99f4eea448fe73345778ee9766a9be0937b66e6e03252589dd84e59a65e43da5",
    ("theorem2", "report.json"): "f140b7c22fadc669efa96c1e367e00a7f80b9826feb532f6f62f26e0b7e16db6",
    ("theorem2", "theorem2.csv"): "1dd224eaf2031ff2cb972a8ef797c8e56deb9e0404b13e55deca80cbb2f6e117",
    ("theorem2", "theorem2.svg"): "de02f1816fa22a65e2c272caa740f925c87ea2308f5e7220b95485d0837e12cf",
    ("uniqueness", "report.json"): "226cc7532653f3059b90ad4426be19b6f8fbd114ada883e9c4edd3d8dc110a65",
    ("uniqueness", "uniqueness.csv"): "2226760e06638c8580a170c770f777ea3bd9b49f0b16c0109213c3bb3cde7374",
    ("uniqueness", "uniqueness.svg"): "b65086163d0771b4ce2df2943f616cc433bd5adde643235f980f876e7c4ba02b",
    ("vc", "report.json"): "c588b0f0442397f24bca1daabd6827e85373d19d1fc124e0e87ed31d481842bb",
    ("vc", "vc.csv"): "e5108179af8c11f19ca5ded6c288d4b4c90acec77bdc5d2c04fc10aebf82ac16",
    ("vc_random", "report.json"): "98aa5ac54b12c8bb4dea69d74de76c06b04d53b1017470181ec6136afe572ed2",
    ("vc_random", "vc.csv"): "dfd6f32134c1ac904a3d9303c809baa113dc28e7a3f2d4d85e112ad5459064e0",
}


@pytest.mark.parametrize("case, name", sorted(GOLDEN))
def test_golden_output_digests(tmp_path, case, name):
    out = run_golden_case(tmp_path, case)
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[(case, name)]
