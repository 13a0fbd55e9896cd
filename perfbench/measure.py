"""Summary statistics shared by the benchmark and its comparison tool."""

from __future__ import annotations

import hashlib
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank `pct` percentile of n."""
    return n - math.ceil(pct / 100 * n)


def percentile(values, pct: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile; refuses when fewer than `min_beyond`
    samples lie beyond it, since the tail would then rest on a handful of
    values."""
    n = len(values)
    if n == 0 or samples_beyond(n, pct) < min_beyond:
        raise ValueError(f"p{pct:g} of {n} samples has fewer than {min_beyond} samples beyond it")
    return sorted(values)[math.ceil(pct / 100 * n) - 1]


def min_samples_for(pct: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which `percentile` accepts `pct`."""
    n = 1
    while samples_beyond(n, pct) < min_beyond:
        n += 1
    return n


def quartile_spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def self_times(spans) -> list[int]:
    """Per-span self time: duration minus the durations of direct children.

    `spans` holds (name, start, end, parent) rows with parent the index of
    the enclosing span or -1.  Spans of one thread nest, so the direct
    children never overlap and their durations add up to the part of the
    parent they cover.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def input_digest(hashes) -> str:
    """Digest of a run's inputs from its per-operation hashes, in index order."""
    return hashlib.sha256(b"".join(bytes.fromhex(h) for h in hashes)).hexdigest()
