"""Small statistics helpers for benchmark post-processing.

The paper reports "best of 10 batch jobs" for the microbenchmarks and "mean
of 10 runs" for the application motifs; :func:`summarize` captures all the
aggregates either convention needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Aggregate statistics over a sample of measurements."""

    n: int
    mean: float
    minimum: float
    maximum: float
    median: float
    stdev: float
    # tail percentiles (linear interpolation between order statistics)
    p50: float
    p95: float
    p99: float
    p999: float


def _percentile_sorted(xs: Sequence[float], q: float) -> float:
    """``q``-th percentile of a sorted sample, linearly interpolated
    between neighboring order statistics (numpy's default convention)."""
    n = len(xs)
    if n == 1:
        return xs[0]
    pos = (n - 1) * (q / 100.0)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= n:
        return xs[-1]
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def summarize(samples: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` for a non-empty sample sequence.

    Samples must be finite: a NaN would sort arbitrarily (every comparison
    against it is false), silently corrupting min/median/best for any
    figure built on the summary, so NaN/inf raise :class:`ValueError`
    instead.
    """
    xs = []
    for x in samples:
        v = float(x)
        if not math.isfinite(v):
            raise ValueError(f"summarize() requires finite samples, got {v!r}")
        xs.append(v)
    if not xs:
        raise ValueError("summarize() requires at least one sample")
    xs.sort()
    n = len(xs)
    # fsum + clamping: a naive sum()/n can land one ulp outside [min, max]
    # (e.g. three identical samples), breaking min <= mean <= max
    mean = min(max(math.fsum(xs) / n, xs[0]), xs[-1])
    if n % 2:
        median = xs[n // 2]
    else:
        median = 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    if n > 1:
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    else:
        var = 0.0
    return Summary(
        n=n,
        mean=mean,
        minimum=xs[0],
        maximum=xs[-1],
        median=median,
        stdev=math.sqrt(var),
        p50=_percentile_sorted(xs, 50),
        p95=_percentile_sorted(xs, 95),
        p99=_percentile_sorted(xs, 99),
        p999=_percentile_sorted(xs, 99.9),
    )
