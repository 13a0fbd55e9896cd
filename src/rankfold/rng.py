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

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable 64-bit generator with uniform integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], via rejection sampling (no modulo bias)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # Draw from the largest multiple of span below 2^64 and reject the rest.
        limit = (_MASK + 1) - ((_MASK + 1) % span)
        while True:
            v = self.next_u64()
            if v < limit:
                return lo + v % span


def derive_seed(seed: int, index: int) -> int:
    """Stable per-trial seed: scramble the run seed with the trial index."""
    return _mix((seed & _MASK) ^ _mix((index * _GAMMA) & _MASK))
