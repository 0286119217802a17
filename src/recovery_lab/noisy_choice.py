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
``read_dataset``, which parses the writer's own grammar in bulk and any
other file line by line).  Record i draws from its own stream
``default_rng([*seed, i])``, so datasets are prefix-stable.  ``_streams``
steps these streams in batches, bit for bit, following numpy's stable
``SeedSequence``/``PCG64`` algorithms, and generation reads each double of a
stream once; tests/test_streams.py fails loudly if numpy ever changes them.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _jsonio
from ._streams import Streams
from .errors import DatasetFormatError, RejectionCapError, ShapeMismatchError
from .wald_env import CAP_MESSAGE, MAX_TRIES, BoxDomain, Domain, WaldUtility, domain_from_dict

_ROUND = 1 << 13  # most doubles one rejection round reads: 910 rows of a 2-d cone's first round, 9 each


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
    bounded = ("theta_min", "theta_max", "tau")
    kind, body = _jsonio.descriptor(d, {"constant_flip": ("theta",), "bounded_response": bounded})
    if kind == "constant_flip":
        return ConstantFlip(float(_jsonio.number_field(body, "theta")))
    return BoundedResponse(*(float(_jsonio.number_field(body, k)) for k in bounded))


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


def _draw_pairs(domain: Domain, streams: Streams, m: int):
    """Points (2, m, d), x then y, and the flip uniform of m records, read as a
    loop drawing one try at a time would read them.

    Each round reads one block of tries * d + 1 doubles per pending row, from
    where that row's last round stopped: x is the block's first accepted try, y
    the next, and the flip the double after y's try.  A row that needs more
    tries carries its misses into the next round, whose look-ahead grows with
    the first pending row's misses; a box row is done in one round of 2d + 1."""
    box, d = isinstance(domain, BoxDomain), domain.dim
    # a box try is lo + (hi - lo) * u; a cone try is M * u, kept if contains_batch accepts it
    lo, span = (domain._lo, domain._hi - domain._lo) if box else (0.0, domain.M)
    accept = (lambda p: np.ones(len(p), bool)) if box else domain.contains_batch
    pts, flip, pending = np.empty((2, m, d)), np.empty(m), np.arange(m)
    found, misses = np.zeros((2, m), np.int64)  # misses: rejected tries since the row's last point
    while pending.size:
        lead = misses[pending[0]]
        tries = 2 if box else int(min(max(4, lead), MAX_TRIES - lead))
        rows = pending[: max(1, _ROUND // (tries * d + 1))]
        u = streams.read(rows, np.arange(tries * d + 1))
        cand = lo + span * u[:, :-1].reshape(len(rows), tries, d)
        seen = accept(cand.reshape(-1, d)).reshape(len(rows), tries).cumsum(axis=1)  # acceptances so far
        first = (seen == 0).sum(axis=1)  # the try of the row's first acceptance; tries if none
        if np.any(misses[rows] + first >= MAX_TRIES):
            raise RejectionCapError(CAP_MESSAGE.format(MAX_TRIES))
        last = (seen < 2 - found[rows, None]).sum(axis=1)  # the try of the row's last point
        x, done = last > first, last < tries  # x: a row with no point takes one at first
        pts[0, rows[x]] = cand[x, first[x]]
        pts[1, rows[done]] = cand[done, last[done]]
        flip[rows[done]] = u[done, (last[done] + 1) * d]
        found[rows] = np.where(done, 2, found[rows] + x)
        misses[rows] = np.where(x, tries - 1 - first, misses[rows] + tries)
        streams.advance(np.where(done, (last + 1) * d + 1, tries * d))
        pending = np.flatnonzero(found < 2)
    return pts, flip


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
    pts, flip = _draw_pairs(domain, Streams(seed, np.arange(n)), n)
    v = pref.value_batch(pts.reshape(2 * n, domain.dim))
    swap = ~(flip < q_eval_batch(noise, v[:n], v[n:]))  # records where y is chosen
    pts[:, swap] = pts[::-1, swap]  # chosen first, in place: the dataset is one block
    meta = {
        "format": "choice-dataset/1",
        "domain": domain.to_dict(),
        "noise": noise.to_dict(),
        "preference": pref.to_dict(),
        "seed": list(seed) if isinstance(seed, (list, tuple)) else seed,
        "n": n,
    }
    return Dataset(pts[0], pts[1], meta)


def dataset_text(ds: Dataset) -> str:
    """Line-delimited JSON: meta line first, then one record per line, all
    formatted by one ``%`` with ``_jsonio.format_float``'s rule per number:
    ``%.1f`` for an integral value below 1e16 in magnitude, else ``%.17g``."""
    rows = np.concatenate([ds.chosen, ds.rejected], axis=1)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"record {bad[0]} has a non-finite value")
    integral = (rows == np.trunc(rows)) & (np.abs(rows) < 1e16)
    d = ds.chosen.shape[1]

    def template(specs) -> str:
        return f'{{"chosen": [{", ".join(specs[:d])}], "rejected": [{", ".join(specs[d:])}]}}\n'

    lines = [template(["%.17g"] * 2 * d)] * ds.n
    for i in np.flatnonzero(integral.any(axis=1)):
        lines[i] = template(np.where(integral[i], "%.1f", "%.17g").tolist())
    return _jsonio.dumps(ds.meta) + "\n" + "".join(lines) % tuple(rows.ravel().tolist())


def write_dataset(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(dataset_text(ds), encoding="utf-8")


def _floats(row) -> list[float]:
    if type(row) is not list or not (kinds := set(map(type, row))) <= {float, int}:
        raise ValueError("chosen and rejected must be lists of numbers")
    return [float(v) for v in row] if int in kinds else row


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object, refused when a key repeats (json would keep the last)."""
    if len(keys := [k for k, _ in pairs]) != len(set(keys)):
        raise ValueError(f"repeated key among {keys}")
    return dict(pairs)


_decode = json.JSONDecoder(object_pairs_hook=_unique_keys).raw_decode  # one value and where it ends

# Possessive quantifiers (Python 3.11 and later) only spare the match its
# backtracking bookkeeping: no number of the writer's grammar gives a digit back.
_ONCE = "+" if sys.version_info >= (3, 11) else ""


def _written_records(body: str, d: int) -> np.ndarray | None:
    """The (n, 2d) values of a body of record lines exactly as ``dataset_text``
    writes them, d numbers a list; None for a body written any other way.

    A number is %.17g, or %.1f for an integral value below 1e16: at most 17
    integer digits, 20 fraction digits and a 3-digit exponent.  "-0", which
    JSON reads as the integer 0, is left to the per-line path."""
    number = (
        rf"(?:0|-?0(?=[.e])|-?[1-9]\d{{0,16}}{_ONCE})"
        rf"(?:\.\d{{1,20}}{_ONCE})?{_ONCE}(?:e[-+]\d{{2,3}}{_ONCE})?{_ONCE}"
    )
    row = ", ".join([number] * d)
    if re.fullmatch(rf'(?:\{{"chosen": \[{row}\], "rejected": \[{row}\]\}}\n)*{_ONCE}', body) is None:
        return None
    numbers = body.replace('], "rejected": [', ", ").replace(']}\n{"chosen": [', ", ")[12:-3]
    return np.array(numbers.split(", ") if numbers else [], dtype=float).reshape(-1, 2 * d)


def _record_lines(body: str, dim: int | None) -> tuple[np.ndarray, int | None]:
    """The (n, 2d) values of a body decoded line by line, and d; a line that is
    not one record object of two equal-length number lists, of the meta domain's
    dimension or else the first record's, is a DatasetFormatError naming it."""
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    source = "domain"
    rows = []
    for lineno, raw in enumerate(lines, start=2):
        try:
            obj, end = _decode(raw := raw.strip(" \t\r"))  # JSON's own whitespace
            if end < len(raw):
                raise ValueError(f"extra data from column {end + 1}")
            obj = _jsonio.known_keys(obj, ("chosen", "rejected"))
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
        rows.append(c + r)
    return np.array(rows, dtype=float).reshape(len(rows), 2 * (dim or 0)), dim


def read_dataset(path: str | Path) -> Dataset:
    """Parse and validate a JSONL dataset; every malformed line is a DatasetFormatError.

    Under a meta line with a domain, a body written exactly as ``dataset_text``
    writes it is matched by one regular expression and its numbers parsed by
    one numpy call.  Any other body is decoded line by line, and the error
    names the first bad line: each record line must hold exactly one JSON
    object, with the keys chosen and rejected once each, so a record split over
    two lines is refused even when another line carries one record too many."""
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise DatasetFormatError("empty dataset file", line=1)
    head, _, body = text.partition("\n")
    try:
        meta = _jsonio.loads(head)
    except ValueError as exc:
        raise DatasetFormatError(f"bad meta line: {exc}", line=1) from exc
    if not isinstance(meta, dict) or "n" not in meta:
        raise DatasetFormatError("meta line must be an object with an 'n' field", line=1)
    try:
        n = _jsonio.count_field(meta, "n", 0)
    except ValueError as exc:
        raise DatasetFormatError(f"bad meta line: {exc}", line=1) from exc
    try:
        dim = domain_from_dict(meta["domain"]).dim if "domain" in meta else None
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise DatasetFormatError(f"bad domain in meta line: {exc!r}", line=1) from exc
    values = None if dim is None else _written_records(body, dim)
    if values is None:
        values, dim = _record_lines(body, dim)
    if len(values) != n:
        raise DatasetFormatError(f"meta says n={n} but found {len(values)} records", line=len(values) + 1)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise DatasetFormatError("bad record: non-finite value", line=int(bad[0]) + 2)
    chosen, rejected = np.ascontiguousarray(values.reshape(n, 2, dim or 0).swapaxes(0, 1))
    return Dataset(chosen, rejected, meta)
