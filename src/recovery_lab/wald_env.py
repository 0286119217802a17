"""Euclidean choice domains and Wald utility families.

Two domains: an axis-aligned box (convex, compact, used with a common
Lipschitz bound) and a cone section (homothetic setting): vectors theta*x
with x on the radius-M sphere patch above the floor alpha*1 and theta in
[0, 1].  Utilities are normalized so the constant bundle c*1 is worth
exactly c (weights on the simplex): linear, CES, and Cobb-Douglas kinds,
each enumerable as a ``WaldGrid`` of parameter arrays for the empirical-risk search.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._combinatorics import composition_count, compositions
from ._jsonio import count_field, descriptor, known_keys, number_field
from .errors import EnumerationCapError, NumericalGuardError, RejectionCapError, ShapeMismatchError

LINEAR = "linear"
CES = "ces"
COBB_DOUGLAS = "cobb_douglas"

MAX_TRIES = 10_000  # rejection tries per cone point
MAX_LATTICE_POINTS = 2_000_000  # lattice points before the membership filter, or family members
CAP_MESSAGE = "rejection sampling failed after {} tries; domain parameters look degenerate"


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with nonempty interior."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be same nonzero length")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValueError("need lo < hi componentwise")

    @staticmethod
    def unit(d: int) -> "BoxDomain":
        return BoxDomain((0.0,) * d, (1.0,) * d)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @cached_property
    def _lo(self) -> np.ndarray:
        return np.asarray(self.lo, dtype=float)

    @cached_property
    def _hi(self) -> np.ndarray:
        return np.asarray(self.hi, dtype=float)

    def contains(self, x) -> bool:
        x = _check_dim(x, self.dim)
        return bool(self.contains_batch(x[None])[0])

    def contains_batch(self, x: np.ndarray) -> np.ndarray:
        return np.all((x >= self._lo) & (x <= self._hi), axis=1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_batch(rng, 1)[0]

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self._lo, self._hi, size=(n, self.dim))

    def to_dict(self) -> dict:
        return {"box": {"lo": list(self.lo), "hi": list(self.hi)}}


@dataclass(frozen=True)
class ConeDomain:
    """Cone section: ||x|| <= M and min_i x_i >= (alpha/M) ||x||.

    Equivalent to the two-parameter form theta*s with s on the sphere patch
    {||s|| = M, s >= alpha*1} and theta in [0, 1]; the closed form above is
    what membership tests evaluate.
    """

    alpha: float
    M: float
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not (0.0 < self.alpha and 0.0 < self.M < np.sqrt(np.finfo(float).max / self.d)):
            raise ValueError("alpha and M must be positive, and d * M**2 finite")
        if self.alpha * np.sqrt(self.d) >= self.M:
            raise ValueError("need alpha * sqrt(d) < M for a nonempty domain")

    @property
    def dim(self) -> int:
        return self.d

    def contains(self, x) -> bool:
        x = _check_dim(x, self.d)
        return bool(self.contains_batch(x[None])[0])

    def contains_batch(self, x: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(x, axis=1)
        return (norms <= self.M) & (np.min(x, axis=1) >= (self.alpha / self.M) * norms)

    def sample(self, rng: np.random.Generator, max_tries: int = MAX_TRIES) -> np.ndarray:
        for _ in range(max_tries):
            x = rng.uniform(0.0, self.M, size=self.d)
            if self.contains(x):
                return x
        raise RejectionCapError(CAP_MESSAGE.format(max_tries))

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points, each the first accepted try after the previous one, as
        ``sample`` draws them, with the same cap of MAX_TRIES tries per point."""
        out = np.empty((n, self.d))
        filled = misses = 0  # misses: rejected tries since the last accepted one
        while filled < n:
            draw = rng.uniform(0.0, self.M, size=(max(n - filled, 64), self.d))
            hits = np.flatnonzero(self.contains_batch(draw))[: n - filled]
            waits = np.diff(hits, prepend=-1 - misses) - 1  # rejected tries before each point
            misses = len(draw) - 1 - hits[-1] if hits.size else misses + len(draw)
            out[filled : filled + hits.size] = draw[hits]
            filled += hits.size
            if np.any(waits >= MAX_TRIES) or (filled < n and misses >= MAX_TRIES):
                raise RejectionCapError(CAP_MESSAGE.format(MAX_TRIES))
        return out

    def to_dict(self) -> dict:
        return {"cone": {"alpha": self.alpha, "M": self.M, "d": self.d}}


Domain = BoxDomain | ConeDomain


def domain_from_dict(d: dict) -> Domain:
    kind, body = descriptor(d, {"box": ("lo", "hi"), "cone": ("alpha", "M", "d")})
    if kind == "box":
        return BoxDomain(*(number_field(body, k, many=True) for k in ("lo", "hi")))
    alpha, M = (float(number_field(body, k)) for k in ("alpha", "M"))
    return ConeDomain(alpha, M, count_field(body, "d", 1))


def _check_dim(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ShapeMismatchError(f"expected vector of dimension {d}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class WaldUtility:
    """Utility over bundles with the diagonal normalization u(c*1) = c.

    Weights lie on the simplex; CES needs rho != 0 and Cobb-Douglas strictly
    positive weights.  All three kinds are homogeneous of degree one.
    """

    kind: str
    weights: tuple[float, ...]
    rho: float | None = None

    def __post_init__(self):
        w = self.weights
        if not w or any(v < 0.0 for v in w) or abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.kind == CES:
            if not isinstance(self.rho, (int, float)) or self.rho == 0.0:
                raise ValueError(f"ces utility needs a number rho != 0, got {self.rho!r}")
        elif self.kind == COBB_DOUGLAS:
            if any(v <= 0.0 for v in w):
                raise ValueError("cobb_douglas weights must be strictly positive")
            if self.rho is not None:
                raise ValueError("cobb_douglas takes no rho")
        elif self.kind == LINEAR:
            if self.rho is not None:
                raise ValueError("linear utility takes no rho")
        else:
            raise ValueError(f"unknown utility kind {self.kind!r}")

    @cached_property
    def _w(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def param_tuple(self) -> tuple[float, ...]:
        """Canonical parameter vector used for deterministic tie-breaking."""
        if self.kind == CES:
            return (self.rho, *self.weights)
        return tuple(self.weights)

    def value(self, x) -> float:
        """Utility of a single bundle."""
        x = _check_dim(x, self.dim)
        return float(self.value_batch(x[None, :])[0])

    def value_batch(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over rows of x: a batch of one ``value_rows``."""
        return next(value_rows([self], x))

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "weights": list(self.weights)}
        if self.rho is not None:
            out["rho"] = self.rho
        return out

    @staticmethod
    def from_dict(d: dict) -> "WaldUtility":
        weights = number_field(known_keys(d, ("kind", "weights", "rho")), "weights", many=True)
        return WaldUtility(d["kind"], weights, number_field(d, "rho", None))


def power_table(x: np.ndarray, kind: str, rho: float | None) -> tuple[np.ndarray, np.ndarray | None, float]:
    """The table ``p`` a (kind, rho) group values the rows of x through, ``pos``, and ``top``.

    ``p`` is x**rho for CES and x itself for the other kinds.  For CES with
    rho < 0 it covers only the rows with no zero coordinate, which ``pos``
    marks; the others are worth zero.  ``pos`` is None when p covers every row.
    Raises NumericalGuardError when the table is not finite (x**rho overflows
    for a large negative rho near the origin); underflow stays silent.

    ``top`` bounds |v| for every member's value v over the covered rows, or is
    inf where a value might not be finite.  Each value is a mean (arithmetic,
    power or geometric) of its row: a dot p @ w lies in [min p / d, max p] up
    to rounding, as the weights lie on the simplex and one is at least 1/d.
    ``top`` takes the value at 2 * max|p|, or at min p / (2 d) for rho < 0.
    """
    if kind != LINEAR and np.any(x < 0.0):
        raise ValueError("ces/cobb_douglas utilities need nonnegative bundles")
    pos = np.all(x > 0.0, axis=-1) if kind == CES and rho < 0.0 else None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = _finite(x if kind != CES else np.power(x if pos is None else x[pos], rho), kind, rho)
        top = 2.0 * np.abs(p).max(initial=0.0)
        if kind == CES and rho > 0.0:
            top = top ** (1.0 / rho)
        elif kind == CES:
            lo = p.min(initial=np.inf) / (2 * p.shape[-1])
            top = lo ** (1.0 / rho) if lo >= np.finfo(float).tiny else np.inf
    return p, pos, float(top)


def _finite(a: np.ndarray, kind: str, rho: float | None) -> np.ndarray:
    if not np.isfinite(a).all():
        at = "" if rho is None else f" at rho={rho!r}"
        raise NumericalGuardError(f"{kind} utility values{at} are not finite on these bundles")
    return a


def _row(u: "WaldUtility", p: np.ndarray, pos: np.ndarray | None) -> np.ndarray:
    if u.kind == LINEAR:
        return p @ u._w
    if u.kind == COBB_DOUGLAS:
        return np.prod(np.power(p, u._w), axis=-1)
    if pos is None:
        return np.power(p @ u._w, 1.0 / u.rho)
    out = np.zeros(pos.shape)
    out[pos] = np.power(p @ u._w, 1.0 / u.rho)
    return out


def value_rows(members, x: np.ndarray):
    """Yield each member's values over the rows of x, in member order.

    x is raised to each distinct (kind, rho) once, by ``power_table``.  Each
    member then takes its own ``p @ w``, so its row does not depend on the
    list: a product across members would round some entries differently.
    Where the table's ``top`` is not finite, each row is computed with numpy's
    warnings off and checked: one that is not finite raises NumericalGuardError.
    A generator, so callers hold one member's row at a time, never a whole table.
    """
    tables: dict = {}
    for u in members:
        if (key := (u.kind, u.rho)) not in tables:
            tables[key] = power_table(x, u.kind, u.rho)
        p, pos, top = tables[key]
        if top < np.inf:
            yield _row(u, p, pos)
            continue
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            row = _row(u, p, pos)
        yield _finite(row, u.kind, u.rho)


class WaldGrid(Sequence):
    """Every row of ``weights`` (W, d) under each of ``rhos`` in turn, as read-only
    arrays: member r has the weights ``weights[r]`` and the rho ``rhos[rho_of[r]]``,
    where ``rhos`` keeps the first of equal rhos as given (None for kinds other
    than CES), and ``params[r]`` is (rho or 0.0, *weights), whose rows compare
    as ``param_tuple`` does.  ``grid[r]`` builds member r; a slice is a list."""

    def __init__(self, kind: str, rhos: list, weights: np.ndarray):
        self.kind, self.rhos = kind, tuple(dict.fromkeys(rhos))
        self.rho_of = np.repeat([self.rhos.index(r) for r in rhos], len(weights))
        self.weights = np.tile(weights, (len(rhos), 1))
        self.params = np.column_stack((np.array([r or 0.0 for r in self.rhos])[self.rho_of], self.weights))
        self.rho_of.flags.writeable = self.weights.flags.writeable = self.params.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rho_of)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return [self[i] for i in range(len(self))[r]]
        r = range(len(self))[r]  # an IndexError ends iteration
        return WaldUtility(self.kind, tuple(self.weights[r].tolist()), self.rhos[self.rho_of[r]])


@dataclass(frozen=True)
class UtilityFamily:
    """Enumerable parameter grid of Wald utilities over one domain.

    Weights run over the simplex at resolution 1/weight_steps; CES members
    additionally range over rho_grid.  ``kappa`` carries the family's common
    Lipschitz bound when one is asserted (box environments).
    """

    kind: str
    domain: Domain
    weight_steps: int
    rho_grid: tuple[float, ...] = ()
    kappa: float | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR, CES, COBB_DOUGLAS):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.weight_steps < 1:
            raise ValueError("weight_steps must be >= 1")
        if self.kind == CES and not self.rho_grid:
            raise ValueError("ces family needs a rho grid")
        if any(not isinstance(r, (int, float)) or r == 0.0 for r in self.rho_grid):
            raise ValueError(f"rho_grid must list nonzero numbers, got {list(self.rho_grid)}")
        if self.kind != CES and self.rho_grid:
            raise ValueError("only ces families take a rho grid")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def members(self) -> "WaldGrid":
        """Weights at resolution 1/weight_steps (interior ones for Cobb-Douglas) under
        each rho in ascending order; refused unbuilt past MAX_LATTICE_POINTS members."""
        size = composition_count(self.weight_steps, self.dim) * max(1, len(self.rho_grid))
        if size > MAX_LATTICE_POINTS:
            raise EnumerationCapError(f"family grid too big: {size} members exceeds cap {MAX_LATTICE_POINTS}")
        counts = compositions(self.weight_steps, self.dim)
        counts = counts[(counts > 0).all(axis=1) | (self.kind != COBB_DOUGLAS)]
        return WaldGrid(self.kind, sorted(self.rho_grid) or [None], counts / self.weight_steps)

    def refine_around(self, member: WaldUtility, level: int) -> "WaldGrid":
        """Candidates at half the grid step around ``member`` (local search), it first.

        Weight moves transfer step/2**level mass from coordinate j to i, for each
        pair (i, j) row by row; CES candidates also try rho midpoints toward grid
        neighbors.
        """
        h = 1.0 / (self.weight_steps * (2**level))
        base, eye = np.asarray(member.weights, dtype=float), np.eye(self.dim)
        i, j = np.nonzero(eye == 0.0)
        left = base[j] - h  # what each move leaves at j
        keep = (left >= -1e-12) & ((left > 0.0) | (self.kind != COBB_DOUGLAS))
        moves = np.clip(base + h * (eye[i[keep]] - eye[j[keep]]), 0.0, 1.0)
        weights = np.vstack((base, moves / moves.sum(axis=1, keepdims=True)))
        if self.kind != CES:
            return WaldGrid(self.kind, [None], weights)
        grid = sorted(self.rho_grid)
        pos = int(np.argmin([abs(r - member.rho) for r in grid]))
        near = [grid[nb] for nb in (pos - 1, pos + 1) if 0 <= nb < len(grid)]
        mids = (member.rho + (r - member.rho) / (2**level) for r in near)
        return WaldGrid(CES, [member.rho, *(mid for mid in mids if mid != 0.0)], weights)

    def to_dict(self) -> dict:
        body: dict = {"weight_steps": self.weight_steps}
        if self.kind == CES:
            body["rho_grid"] = list(self.rho_grid)
        if self.kappa is not None:
            body["kappa"] = self.kappa
        return {self.kind: body}

    @staticmethod
    def from_dict(d: dict, domain: Domain) -> "UtilityFamily":
        keys = ("weight_steps", "rho_grid", "kappa")
        kind, body = descriptor(d, dict.fromkeys((LINEAR, CES, COBB_DOUGLAS), keys))
        return UtilityFamily(
            kind,
            domain,
            count_field(body, "weight_steps", 1),
            number_field(body, "rho_grid", (), many=True),
            number_field(body, "kappa", None),
        )


@dataclass(frozen=True)
class WaldCheckReport:
    """Observed violations of the diagonal and homogeneity identities."""

    max_wald_violation: float
    max_homogeneity_violation: float
    frac_certainty_in_domain: float
    n_points: int


def wald_check(
    u: WaldUtility, domain: Domain, n_points: int, seed: int = 0
) -> WaldCheckReport:
    """Sample the domain and measure |u(u(x)*1) - u(x)| and |u(tx) - t u(x)|."""
    if n_points < 1:
        raise ValueError(f"wald_check needs n_points >= 1, got {n_points}")
    rng = np.random.default_rng([seed, 2**16])
    x = domain.sample_batch(rng, n_points)
    v = u.value_batch(x)
    certain = np.repeat(v[:, None], domain.dim, axis=1)  # the bundles u(x) * 1
    max_wald = float(np.max(np.abs(u.value_batch(certain) - v), initial=0.0))
    inside = int(np.count_nonzero(domain.contains_batch(certain)))
    theta = np.array([0.25, 0.5, 0.75])[:, None]
    scaled = u.value_batch((theta[:, :, None] * x).reshape(-1, domain.dim)).reshape(3, -1)
    max_hom = float(np.max(np.abs(scaled - theta * v), initial=0.0))
    return WaldCheckReport(max_wald, max_hom, inside / n_points, n_points)


def _grid_points(domain: Domain, axis) -> np.ndarray:
    """Product grid of ``axis(lo, hi)`` over the domain's bounding box (the box
    itself, or [0, M]^d for a cone section), filtered by membership."""
    if isinstance(domain, BoxDomain):
        axes = [axis(l, h) for l, h in zip(domain.lo, domain.hi)]
    else:
        axes = [axis(0.0, domain.M)] * domain.d
    if (n := math.prod(len(a) for a in axes)) > MAX_LATTICE_POINTS:
        raise EnumerationCapError(f"lattice too fine: {n} grid points exceeds cap {MAX_LATTICE_POINTS}")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[domain.contains_batch(pts)]


def lattice_points(domain: Domain, steps: int) -> np.ndarray:
    """Deterministic evaluation lattice inside the domain.

    ``steps`` intervals per axis: boxes get the full product grid, cone
    sections the product grid over [0, M]^d filtered by membership.  Used as
    the default grid for utility sup-distances.
    """
    return _grid_points(domain, lambda lo, hi: np.linspace(lo, hi, steps + 1))


def lipschitz_estimate(u: WaldUtility, domain: Domain, grid_step: float) -> float:
    """Largest secant slope |u(x) - u(y)| / ||x - y|| over a domain lattice.

    Every secant slope is bounded by the true Lipschitz constant, so this is
    a genuine lower bound; for linear utilities it recovers the weight norm
    exactly whenever the weight direction is realizable on the lattice.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    def axis(lo, hi):  # hi itself ends the axis when (hi - lo) / grid_step is integral
        pts = np.arange(lo, hi + 1e-9 * grid_step, grid_step)
        return np.where(np.abs(pts - hi) <= 1e-9 * grid_step, hi, pts)

    pts = _grid_points(domain, axis)
    vals = u.value_batch(pts)
    best = 0.0
    for start in range(0, len(pts), 256):
        block = slice(start, min(start + 256, len(pts)))
        diff = pts[:, None, :] - pts[None, block, :]
        dist = np.linalg.norm(diff, axis=2)
        dv = np.abs(vals[:, None] - vals[None, block])
        mask = dist > 0
        if np.any(mask):
            best = max(best, float(np.max(dv[mask] / dist[mask])))
    return best


def validate_family_kappa(family: UtilityFamily, grid_step: float = 0.05) -> bool:
    """Check every grid member's estimated Lipschitz constant against kappa."""
    if family.kappa is None:
        raise ValueError("family carries no Lipschitz bound")
    return all(
        lipschitz_estimate(m, family.domain, grid_step) <= family.kappa * (1 + 1e-6)
        for m in family.members()
    )
