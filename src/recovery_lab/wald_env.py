"""Euclidean choice domains and Wald utility families.

Two domains: an axis-aligned box (convex, compact, used with a common
Lipschitz bound) and a cone section (homothetic setting): vectors theta*x
with x on the radius-M sphere patch above the floor alpha*1 and theta in
[0, 1].  Utilities are normalized so the constant bundle c*1 is worth
exactly c (weights on the simplex): linear, CES, and Cobb-Douglas kinds,
each enumerable on a parameter grid for the empirical-risk search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._combinatorics import compositions
from ._jsonio import count_field
from .errors import RejectionCapError, ShapeMismatchError

LINEAR = "linear"
CES = "ces"
COBB_DOUGLAS = "cobb_douglas"

MAX_TRIES = 10_000  # rejection tries per cone point
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
        if not (0.0 < self.alpha and 0.0 < self.M):
            raise ValueError("alpha and M must be positive")
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
    if "box" in d:
        return BoxDomain(tuple(d["box"]["lo"]), tuple(d["box"]["hi"]))
    if "cone" in d:
        c = d["cone"]
        return ConeDomain(float(c["alpha"]), float(c["M"]), count_field(c, "d", 1))
    raise ValueError(f"unknown domain descriptor {sorted(d)}")


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
        """Vectorized evaluation over rows of x."""
        return self.from_powers(*self.powers(x))

    def powers(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Step one of ``value_batch``, shared by all members of one kind and rho:
        x**rho for CES (for rho < 0 over the rows with no zero coordinate, whose
        mask comes with it; the others are worth zero by convention), else x."""
        if self.kind != LINEAR and np.any(x < 0.0):
            raise ValueError("ces/cobb_douglas utilities need nonnegative bundles")
        if self.kind != CES:
            return x, None
        if self.rho < 0.0:
            pos = np.all(x > 0.0, axis=-1)
            return np.power(x[pos], self.rho), pos
        return np.power(x, self.rho), None

    def from_powers(self, p: np.ndarray, pos: np.ndarray | None) -> np.ndarray:
        """Step two of ``value_batch``: this member's values from ``powers``."""
        if self.kind == LINEAR:
            return p @ self._w
        if self.kind == COBB_DOUGLAS:
            return np.prod(np.power(p, self._w), axis=-1)
        values = np.power(p @ self._w, 1.0 / self.rho)
        if pos is None:
            return values
        out = np.zeros(pos.shape)
        out[pos] = values
        return out

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "weights": list(self.weights)}
        if self.rho is not None:
            out["rho"] = self.rho
        return out

    @staticmethod
    def from_dict(d: dict) -> "WaldUtility":
        return WaldUtility(d["kind"], tuple(d["weights"]), d.get("rho"))


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

    def weight_grid(self) -> list[tuple[float, ...]]:
        out = []
        for counts in compositions(self.weight_steps, self.dim):
            if self.kind == COBB_DOUGLAS and any(c == 0 for c in counts):
                continue
            out.append(tuple(c / self.weight_steps for c in counts))
        return out

    def members(self) -> list[WaldUtility]:
        weights = self.weight_grid()
        if self.kind == CES:
            return [
                WaldUtility(CES, w, rho)
                for rho in sorted(self.rho_grid)
                for w in weights
            ]
        return [WaldUtility(self.kind, w) for w in weights]

    def refine_around(self, member: WaldUtility, level: int) -> list[WaldUtility]:
        """Candidates at half the grid step around ``member`` (local search).

        Weight moves transfer step/2**level mass between coordinate pairs;
        CES candidates also try rho midpoints toward grid neighbors.
        """
        h = 1.0 / (self.weight_steps * (2**level))
        d = self.dim
        weight_opts = [member.weights]
        base = np.asarray(member.weights)
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                w = base.copy()
                w[i] += h
                w[j] -= h
                if w[j] < -1e-12 or (self.kind == COBB_DOUGLAS and w[j] <= 0.0):
                    continue
                w = np.clip(w, 0.0, 1.0)
                w /= w.sum()
                weight_opts.append(tuple(float(v) for v in w))
        if self.kind != CES:
            return [WaldUtility(self.kind, w) for w in weight_opts]
        rho_opts = [member.rho]
        grid = sorted(self.rho_grid)
        pos = int(np.argmin([abs(r - member.rho) for r in grid]))
        for nb in (pos - 1, pos + 1):
            if 0 <= nb < len(grid):
                mid = member.rho + (grid[nb] - member.rho) / (2**level)
                if mid != 0.0:
                    rho_opts.append(mid)
        return [WaldUtility(CES, w, r) for r in rho_opts for w in weight_opts]

    def to_dict(self) -> dict:
        body: dict = {"weight_steps": self.weight_steps}
        if self.kind == CES:
            body["rho_grid"] = list(self.rho_grid)
        if self.kappa is not None:
            body["kappa"] = self.kappa
        return {self.kind: body}

    @staticmethod
    def from_dict(d: dict, domain: Domain) -> "UtilityFamily":
        (kind, body), = d.items()
        return UtilityFamily(
            kind,
            domain,
            count_field(body, "weight_steps", 1),
            tuple(body.get("rho_grid", ())),
            body.get("kappa"),
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
