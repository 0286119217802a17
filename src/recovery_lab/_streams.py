"""Counter-based record streams: ``default_rng([*seed, i])`` for many ids at once.

Numpy's ``SeedSequence`` hashing runs on uint32 lanes and the PCG64 state on
uint64 (hi, lo) limbs; double j of a stream is read from ``MULT**j * state +
(1 + ... + MULT**(j-1)) * inc`` via tables, bit for bit as numpy draws it.
"""

from __future__ import annotations

import operator
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _tables(size: int):
    """Limbs (hi, lo) of MULT**j and 1 + ... + MULT**(j-1) for j = 0..size."""
    a, c, rows = 1, 0, []
    for _ in range(size + 1):
        rows.append((a >> 64, a & _M64, c >> 64, c & _M64))
        a, c = a * _MULT & _M128, (c * _MULT + 1) & _M128
    return [np.array(col, np.uint64) for col in zip(*rows)]


def _mulhi(a, b):
    """High word of the 128-bit product of uint64 words, from 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    m1 = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (m1 >> 32) + (a0 * b1 + (m1 & _M32) >> 32)


def _jump(state, steps, inc):
    """State after ``steps`` LCG steps, broadcast over rows and columns."""
    a_hi, a_lo, c_hi, c_lo = (t[steps] for t in _tables(1 << int(np.max(steps, initial=0)).bit_length()))
    (s_hi, s_lo), (i_hi, i_lo) = state, inc
    hi = _mulhi(s_lo, a_lo) + s_hi * a_lo + s_lo * a_hi
    hi += _mulhi(i_lo, c_lo) + i_hi * c_lo + i_lo * c_hi
    lo1, lo2 = s_lo * a_lo, i_lo * c_lo
    return hi + (lo1 + lo2 < lo1), lo1 + lo2


class Streams:
    """PCG64 (state, inc) limbs of ``default_rng([*seed, id])`` for ids in [0, 2**32)."""

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
        del lanes, pool, w  # one Streams spans a dataset: free its hash words before the jump
        # pcg64 srandom: inc = 2 * initseq + 1, state = (inc + initstate) * MULT + inc
        inc = ((i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1)
        lo = inc[1] + s_lo
        self.state, self.inc = _jump((inc[0] + s_hi + (lo < s_lo), lo), 1, inc), inc

    def read(self, rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Doubles number ``at`` (0-based, shape (len(rows), k)) of streams ``rows``."""
        state, inc = (tuple(w[rows, None] for w in p) for p in (self.state, self.inc))
        hi, lo = _jump(state, at + 1, inc)
        x, rot = hi ^ lo, hi >> 58  # XSL-RR output
        return ((x >> rot | x << (64 - rot & 63)) >> 11) * (1.0 / 9007199254740992.0)
