"""Deterministic random number generation.

All randomized routines in the package draw from SplitMix64, a small
64-bit generator with a documented update rule, so that experiment
reports are reproducible bit-for-bit across platforms and Python
versions.  The state update and output scrambler are:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

Per-trial substreams are derived by hashing (seed, index) through one
scramble step, so trial i of a run is independent of how trials are
scheduled across workers.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):  # on an int, or elementwise on a uint64 array
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _span(lo: int, hi: int) -> tuple[int, int]:
    """(span, limit) of [lo, hi]: draws are taken below limit, the largest
    multiple of span up to 2^64, and the rest rejected."""
    span = hi - lo + 1
    if not 1 <= span <= _MASK + 1:
        raise ValueError("empty range" if span < 1 else f"range of {span} integers exceeds 2^64")
    return span, (_MASK + 1) - ((_MASK + 1) % span)


class SplitMix64:
    """Seedable 64-bit generator with uniform integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], via rejection sampling (no modulo bias);
        ValueError for an empty range or one of more than 2^64 integers."""
        span, limit = _span(lo, hi)
        while True:
            v = self.next_u64()
            if v < limit:
                return lo + v % span

    def randints(self, count: int, lo: int, hi: int) -> list:
        """count calls of randint(lo, hi), values and end state: each pass draws
        the outputs still owed on uint64 arrays and keeps what randint keeps."""
        span, limit = _span(lo, hi)
        out: list = []
        while len(out) < count:
            states = np.uint64(self._state) + np.arange(1, count - len(out) + 1, dtype=np.uint64) * np.uint64(_GAMMA)
            out += [lo + x % span for x in _mix(states).tolist() if x < limit]
            self._state = int(states[-1])
        return out


def derive_seed(seed: int, index: int) -> int:
    """Stable per-trial seed: scramble the run seed with the trial index."""
    return _mix((seed & _MASK) ^ _mix((index * _GAMMA) & _MASK))
