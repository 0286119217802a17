"""Noise models, data generation determinism, and dataset serialization."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from recovery_lab.errors import DatasetFormatError
from recovery_lab.experiments.cli import cli_main
from recovery_lab.noisy_choice import (
    BoundedResponse,
    ChoiceRecord,
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
        noise = BoundedResponse(0.6, 0.9, 0.5)
        vx = rng.uniform(0, 1, 200)
        vy = rng.uniform(0, 1, 200)
        vy[::10] = vx[::10]  # include exact ties
        got = q_eval_batch(noise, vx, vy)
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

    def test_high_accuracy_limit(self):
        ds = generate_dataset(BOX, U, ConstantFlip(0.999), 1000, seed=1)
        good = sum(
            U.value(np.array(r.chosen)) >= U.value(np.array(r.rejected))
            for r in ds.records
        )
        assert good / 1000 >= 0.99

    def test_choice_frequency_three_sigma(self):
        n = 20_000
        theta = 0.75
        ds = generate_dataset(BOX, U, ConstantFlip(theta), n, seed=2)
        freq = np.mean(
            U.value_batch(ds.chosen_matrix()) > U.value_batch(ds.rejected_matrix())
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
        assert big.records[:20] == small.records

    def test_works_on_cone(self):
        cone = ConeDomain(0.1, 1.0, 2)
        ds = generate_dataset(cone, WaldUtility("ces", (0.5, 0.5), rho=2.0), ConstantFlip(0.75), 100, seed=5)
        assert all(cone.contains(np.array(r.chosen)) for r in ds.records)


class TestSerialization:
    def test_roundtrip_identity(self, tmp_path):
        ds = generate_dataset(BOX, U, ConstantFlip(0.75), 3, seed=6)
        p = tmp_path / "ds.jsonl"
        write_dataset(ds, p)
        back = read_dataset(p)
        assert back.records == ds.records
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
            records=[],
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
    records = []
    for i in range(n):
        rng = np.random.default_rng([*base, i])
        x, y = sample_problem(domain, rng)
        p = q_eval(noise, pref, x, y)
        if rng.uniform() < p:
            chosen, rejected = x, y
        else:
            chosen, rejected = y, x
        records.append(ChoiceRecord(tuple(chosen.tolist()), tuple(rejected.tolist())))
    meta = {
        "format": "choice-dataset/1",
        "domain": domain.to_dict(),
        "noise": noise.to_dict(),
        "preference": pref.to_dict(),
        "seed": list(seed) if isinstance(seed, (list, tuple)) else seed,
        "n": n,
    }
    return Dataset(records, meta)


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
        assert long.records[:small] == short.records


# SHA-256 of outputs at CLI_CONFIGS, recorded from the per-record generator
GOLDEN = {
    ("gen", "dataset.jsonl"): "ef5256a84569dc3362f9703718a7f27238048ed84e9ac9c95af3f3fd45b3d0ce",
    ("consistency", "consistency.csv"): "fa1ddbb8e857d6959325039b7bacb20404e1ecd1b916f3db36ed3ed20594956a",
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN))
def test_golden_output_digests(tmp_path, command, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CLI_CONFIGS[command]))
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, name)]
