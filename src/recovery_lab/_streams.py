"""Counter-based record streams: ``default_rng([*seed, i])`` for many ids at once.

Numpy's ``SeedSequence`` hashing runs on uint32 lanes and the PCG64 state on
uint64 (hi, lo) limbs.  Each stream keeps its state, and a read steps it forward
from where that stream stopped: the state m steps on is ``MULT**m * state +
(1 + ... + MULT**(m-1)) * inc``, one 128-bit product by a constant per double,
so a stream's doubles are computed once each, bit for bit as numpy draws them.
"""

from __future__ import annotations

import operator
from itertools import permutations

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier


def _hasher(hc: int, mult: int):
    """SeedSequence's hashmix, carrying its running hash constant."""
    def hashmix(v):
        nonlocal hc
        hc, v = hc * mult & _M32, v ^ hc
        return v * hc ^ (v * hc >> 16)
    return hashmix


def _mix(x, y):
    r = 0xCA01F9DD * x - 0x4973F715 * y
    return r ^ (r >> 16)


def _mulhi(a, b):
    """High word of the 128-bit product of uint64 words, from 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    m1 = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (m1 >> 32) + (a0 * b1 + (m1 & _M32) >> 32)


def _times(x, a: int):
    """Limbs of a * x mod 2**128, for limbs x and a Python int a."""
    (x_hi, x_lo), a_hi, a_lo = x, np.uint64(a >> 64), np.uint64(a & _M64)
    return _mulhi(x_lo, a_lo) + x_hi * a_lo + x_lo * a_hi, x_lo * a_lo


def _plus(x, y):
    """Limbs of x + y mod 2**128."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _walk(state, inc, k: int):
    """Limbs (hi, lo), shape (k, rows), of the states 1..k LCG steps past ``state``.

    Row 0 holds the state; once m rows are filled, the next m are those stepped
    m on by the constant pair (MULT**m, 1 + ... + MULT**(m-1)), so k states take
    about log2(k) rounds of array work and one product each."""
    hi, lo = np.empty((2, k + 1, len(state[0])), np.uint64)
    hi[0], lo[0] = state
    a, c, m = _MULT, 1, 1
    while m <= k:
        w = min(m, k + 1 - m)
        hi[m : m + w], lo[m : m + w] = _plus(_times((hi[:w], lo[:w]), a), _times(inc, c))
        a, c, m = a * a & _M128, c * (a + 1) & _M128, 2 * m
    return hi[1:], lo[1:]


class Streams:
    """PCG64 (state, inc) limbs of ``default_rng([*seed, id])`` for ids in [0, 2**32).

    ``read`` gives doubles at offsets from where each stream stands, and
    ``advance`` then moves the streams of that read past the doubles they used."""

    def __init__(self, seed, ids: np.ndarray):
        if ids.size and (ids.min() < 0 or ids.max() > _M32):
            raise ValueError("record ids must lie in [0, 2**32)")
        lanes = []
        for v in map(operator.index, seed if isinstance(seed, (list, tuple)) else [seed]):
            if v < 0:
                raise ValueError(f"seed words must be non-negative integers, got {v}")
            lanes += [np.array([v >> s & _M32], np.uint32) for s in range(0, v.bit_length() or 1, 32)]
        lanes += [ids.astype(np.uint32)] + [np.zeros(1, np.uint32)] * (3 - len(lanes))
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(v) for v in lanes[:4]]
        for src, dst in permutations(range(4), 2):
            pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for v in lanes[4:]:
            pool = [_mix(p, hashmix(v)) for p in pool]
        generate = _hasher(0x8B51F9DD, 0x58F38DED)
        w = [generate(pool[i % 4]).astype(np.uint64) for i in range(8)]
        s_hi, s_lo, i_hi, i_lo = (w[j] | w[j + 1] << 32 for j in range(0, 8, 2))
        del lanes, pool, w  # one Streams spans a dataset: free its hash words before the step
        # pcg64 srandom: inc = 2 * initseq + 1, state = (inc + initstate) * MULT + inc
        inc = ((i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1)
        lo = inc[1] + s_lo
        self.state, self.inc = _plus(_times((inc[0] + s_hi + (lo < s_lo), lo), _MULT), inc), inc
        self._last = None

    def read(self, rows: np.ndarray, at) -> np.ndarray:
        """Doubles at offsets ``at`` (broadcast to shape (len(rows), k); offset 0 is
        the next double) of streams ``rows``, which stay where they stand."""
        at = np.asarray(at)
        state, inc = (tuple(w[rows] for w in p) for p in (self.state, self.inc))
        hi, lo = _walk(state, inc, int(at.max(initial=-1)) + 1)
        self._last = rows, hi, lo
        x, rot = hi ^ lo, hi >> 58  # XSL-RR output
        u = ((x >> rot | x << (64 - rot & 63)) >> 11) * (1.0 / 9007199254740992.0)
        return u[at, np.arange(len(rows))[:, None]]

    def advance(self, used: np.ndarray) -> None:
        """Move stream ``rows[i]`` of the last read past its next ``used[i]`` doubles,
        1 <= used[i] <= the k that read computed."""
        rows, hi, lo = self._last
        for w, block in zip(self.state, (hi, lo)):
            w[rows] = block[used - 1, np.arange(len(rows))]
        self._last = None
