"""Stochastic choice rules and the noisy binary-choice data generator.

Choice problems are pairs drawn independently and uniformly from the
domain; the agent picks the better option with probability above one half.
Two error models are provided: a constant flip probability, and a bounded
response whose accuracy grows with the utility gap but never leaves
(theta_min, theta_max).  Each model has one ``strict_prob`` that maps
utility gaps, an array or a scalar, to the probability of choosing the
better option, and the scalar ``q_eval`` is a batch of one over
``q_eval_batch``.  A ``Dataset`` is two (n, d) arrays, row i of
``chosen`` and ``rejected`` being problem i's chosen and rejected options;
JSONL rows exist only at the file boundary (``dataset_text`` and
``read_dataset``).  Record i draws from its own stream
``default_rng([*seed, i])``, so datasets are prefix-stable.  ``_streams``
computes these streams in batches, bit for bit, following numpy's stable
``SeedSequence``/``PCG64`` algorithms; tests/test_streams.py fails loudly if
numpy ever changes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _jsonio
from ._streams import Streams
from .errors import DatasetFormatError, RejectionCapError, ShapeMismatchError
from .wald_env import CAP_MESSAGE, MAX_TRIES, BoxDomain, Domain, WaldUtility, domain_from_dict

_CHUNK = 1024  # records generated per batch
_ROUND = 1 << 15  # most doubles one rejection round looks ahead


@dataclass(frozen=True)
class ConstantFlip:
    """Choose the better option with fixed probability theta > 1/2."""

    theta: float

    def __post_init__(self):
        if not 0.5 < self.theta < 1.0:
            raise ValueError("theta must lie in (1/2, 1)")

    @property
    def floor(self) -> float:
        return self.theta

    def strict_prob(self, gaps):
        """Probability of choosing the better option at each utility gap (array or scalar)."""
        return np.full(np.shape(gaps), self.theta)

    def to_dict(self) -> dict:
        return {"constant_flip": {"theta": self.theta}}


@dataclass(frozen=True)
class BoundedResponse:
    """Accuracy rises with the utility gap: theta_min + span * tanh(gap / tau)."""

    theta_min: float
    theta_max: float
    tau: float

    def __post_init__(self):
        if not 0.5 < self.theta_min <= self.theta_max < 1.0:
            raise ValueError("need 1/2 < theta_min <= theta_max < 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def floor(self) -> float:
        return self.theta_min

    def strict_prob(self, gaps):
        """Probability of choosing the better option at each utility gap (array or scalar)."""
        return self.theta_min + (self.theta_max - self.theta_min) * np.tanh(gaps / self.tau)

    def to_dict(self) -> dict:
        return {
            "bounded_response": {
                "theta_min": self.theta_min,
                "theta_max": self.theta_max,
                "tau": self.tau,
            }
        }


NoiseModel = ConstantFlip | BoundedResponse


def noise_from_dict(d: dict) -> NoiseModel:
    if "constant_flip" in d:
        return ConstantFlip(float(d["constant_flip"]["theta"]))
    if "bounded_response" in d:
        b = d["bounded_response"]
        return BoundedResponse(float(b["theta_min"]), float(b["theta_max"]), float(b["tau"]))
    raise ValueError(f"unknown noise descriptor {sorted(d)}")


def q_eval(noise: NoiseModel, pref, x, y) -> float:
    """Probability that x is chosen from {x, y} by an agent ranked by pref.

    Exactly 1/2 on indifference, above the noise floor on strict pairs, and
    q(x, y) + q(y, x) = 1 holds exactly by construction.
    """
    return float(q_eval_batch(noise, np.array([pref.value(x)]), np.array([pref.value(y)]))[0])


def q_eval_batch(noise: NoiseModel, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Vectorized q over precomputed utility columns."""
    gap = vx - vy
    up = noise.strict_prob(np.abs(gap))
    return np.where(gap > 0, up, np.where(gap < 0, 1.0 - up, 0.5))


@dataclass
class Dataset:
    """Resolved problems as (n, d) arrays, row i chosen-first in ``chosen``,
    plus the metadata needed to regenerate them bit-for-bit."""

    chosen: np.ndarray
    rejected: np.ndarray
    meta: dict

    def __post_init__(self):
        if self.chosen.ndim != 2 or self.chosen.shape != self.rejected.shape:
            raise ShapeMismatchError("chosen and rejected must be (n, d) arrays of one shape")

    @property
    def n(self) -> int:
        return len(self.chosen)


def sample_problem(domain: Domain, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two independent uniform draws from the domain."""
    return domain.sample(rng), domain.sample(rng)


def _draw_pairs(domain: Domain, streams: Streams, m: int):
    """x, y and the flip uniform of m records, read in the scalar sampler's order."""
    box, d = isinstance(domain, BoxDomain), domain.dim
    # a box try is lo + (hi - lo) * u; a cone try is M * u, kept if contains_batch accepts it
    lo, span = (domain._lo, domain._hi - domain._lo) if box else (0.0, domain.M)
    accept = (lambda p: np.ones(len(p), bool)) if box else domain.contains_batch
    pts, pending = np.empty((2, m, d)), np.arange(m)
    found, pos, misses = np.zeros((3, m), np.int64)  # misses: rejected tries, current point
    while pending.size:
        lead = misses[pending[0]]  # look-ahead grows with the first pending row's misses
        tries = 1 if box else int(min(max(4, lead), MAX_TRIES - lead))
        rows = pending[: max(1, _ROUND // (tries * d))]
        u = streams.read(rows, pos[rows, None] + np.arange(tries * d))
        cand = lo + span * u.reshape(len(rows), tries, d)
        ok = accept(cand.reshape(-1, d)).reshape(len(rows), tries)
        first = ok.argmax(axis=1)
        hit = ok[np.arange(len(rows)), first] & (misses[rows] + first < MAX_TRIES)
        pts[found[rows[hit]], rows[hit]] = cand[hit, first[hit]]
        found[rows[hit]] += 1
        misses[rows] = np.where(hit, 0, misses[rows] + tries)
        if np.any(misses >= MAX_TRIES):
            raise RejectionCapError(CAP_MESSAGE.format(MAX_TRIES))
        pos[rows] += np.where(hit, first + 1, tries) * d
        pending = np.flatnonzero(found < 2)
    return pts[0], pts[1], streams.read(np.arange(m), pos[:, None])[:, 0]


def generate_dataset(
    domain: Domain,
    pref: WaldUtility,
    noise: NoiseModel,
    n: int,
    seed: int | list[int],
) -> Dataset:
    """Simulate n problems; chosen = x with probability q(x, y), else y."""
    if n < 0:
        raise ValueError("n must be >= 0")
    chosen, rejected = np.empty((2, n, domain.dim))
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        x, y, flip = _draw_pairs(domain, Streams(seed, np.arange(start, start + m)), m)
        v = pref.value_batch(np.concatenate([x, y]))
        keep = (flip < q_eval_batch(noise, v[:m], v[m:]))[:, None]
        chosen[start : start + m] = np.where(keep, x, y)
        rejected[start : start + m] = np.where(keep, y, x)
    meta = {
        "format": "choice-dataset/1",
        "domain": domain.to_dict(),
        "noise": noise.to_dict(),
        "preference": pref.to_dict(),
        "seed": list(seed) if isinstance(seed, (list, tuple)) else seed,
        "n": n,
    }
    return Dataset(chosen, rejected, meta)


def dataset_text(ds: Dataset) -> str:
    """Line-delimited JSON: meta line first, then one record per line."""
    lines = [_jsonio.dumps(ds.meta)]
    lines += [
        f'{{"chosen": {_jsonio.dumps(c)}, "rejected": {_jsonio.dumps(r)}}}'
        for c, r in zip(ds.chosen.tolist(), ds.rejected.tolist())
    ]
    return "\n".join(lines) + "\n"


def write_dataset(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(dataset_text(ds), encoding="utf-8")


def _floats(row) -> list[float]:
    if type(row) is not list or not (kinds := set(map(type, row))) <= {float, int}:
        raise ValueError("chosen and rejected must be lists of numbers")
    return [float(v) for v in row] if int in kinds else row


def read_dataset(path: str | Path) -> Dataset:
    """Parse and validate a JSONL dataset; every malformed line is a DatasetFormatError."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetFormatError("empty dataset file", line=1)
    try:
        meta = _jsonio.loads(lines[0])
    except ValueError as exc:
        raise DatasetFormatError(f"bad meta line: {exc}", line=1) from exc
    if not isinstance(meta, dict) or "n" not in meta:
        raise DatasetFormatError("meta line must be an object with an 'n' field", line=1)
    try:
        dim = domain_from_dict(meta["domain"]).dim if "domain" in meta else None
    except (ValueError, KeyError, TypeError) as exc:
        raise DatasetFormatError(f"bad domain in meta line: {exc!r}", line=1) from exc
    source = "domain"
    chosen, rejected = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            obj = _jsonio.loads(raw)
            c, r = _floats(obj["chosen"]), _floats(obj["rejected"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise DatasetFormatError(f"bad record: {exc}", line=lineno) from exc
        if len(c) != len(r):
            raise DatasetFormatError(
                f"chosen has dimension {len(c)} but rejected {len(r)}", line=lineno
            )
        if dim is None:
            dim, source = len(c), "first record"
        if len(c) != dim:
            raise DatasetFormatError(
                f"record dimension {len(c)} != {source} dimension {dim}", line=lineno
            )
        chosen.append(c)
        rejected.append(r)
    if len(chosen) != meta["n"]:
        raise DatasetFormatError(
            f"meta says n={meta['n']} but found {len(chosen)} records",
            line=len(lines),
        )
    shape = (len(chosen), dim or 0)
    chosen, rejected = np.array(chosen).reshape(shape), np.array(rejected).reshape(shape)
    bad = np.flatnonzero(~(np.isfinite(chosen) & np.isfinite(rejected)).all(axis=1))
    if bad.size:
        raise DatasetFormatError("bad record: non-finite value", line=int(bad[0]) + 2)
    return Dataset(chosen, rejected, meta)
