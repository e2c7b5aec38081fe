"""Distribution summaries for Monte-Carlo results.

The paper reports each measurement as a candlestick: the box spans the first
and third quartiles, the whiskers the first and ninth deciles, and the
centre is the mean.  :class:`DistributionSummary` captures exactly those
statistics (plus the median and extrema) for a sample of waste ratios or any
other scalar metric.

:func:`summarize` is pure Python, so rendering a stored campaign never loads
numpy, yet every field is bit-identical to what ``np.mean``, ``np.std`` and
``np.percentile`` (linear interpolation) return for the same sample:
:func:`_pairwise_sum` is numpy's float64 ``add.reduce`` and
:func:`_percentile` its ``_lerp``.  ``tests/test_stats_oracles.py`` holds
them to numpy.  The one divergence is a sample holding ``-0.0``, whose
zeros numpy's ``partition`` orders arbitrarily; waste ratios are never
``-0.0`` (category totals accumulate from ``+0.0``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from operator import add

from repro.errors import AnalysisError

__all__ = ["DistributionSummary", "summarize"]


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics of a scalar sample (candlestick-style)."""

    n: int
    mean: float
    std: float
    minimum: float
    decile1: float
    quartile1: float
    median: float
    quartile3: float
    decile9: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        """All statistics as a plain dictionary (useful for tabulation)."""
        return {
            "n": float(self.n),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "d1": self.decile1,
            "q1": self.quartile1,
            "median": self.median,
            "q3": self.quartile3,
            "d9": self.decile9,
            "max": self.maximum,
        }

    def format(self, precision: int = 3) -> str:
        """Compact one-line rendering: ``mean [d1 q1 | q3 d9]``."""
        p = precision
        return (
            f"{self.mean:.{p}f} "
            f"[{self.decile1:.{p}f} {self.quartile1:.{p}f} | "
            f"{self.quartile3:.{p}f} {self.decile9:.{p}f}]"
        )


def _pairwise_sum(x: Sequence[float], start: int, n: int) -> float:
    """numpy's float64 pairwise sum of ``x[start:start + n]``.

    Under 8 values a left-to-right loop; up to 128, eight running sums over
    blocks of 8 combined as a tree, then the tail in order; beyond, the sum
    of two halves split at a multiple of 8.  ``functools.reduce`` keeps each
    loop in order: ``sum()`` compensates its rounding since Python 3.12.
    """
    if n < 8:
        return reduce(add, x[start : start + n], 0.0)
    if n <= 128:
        stop = start + n - n % 8
        r = [reduce(add, x[start + j : stop : 8]) for j in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, x[stop : start + n], tree)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(x, start, half) + _pairwise_sum(x, start + half, n - half)


def _percentile(ordered: Sequence[float], q: float) -> float:
    """``np.percentile(x, q)`` (linear interpolation) from ``sorted(x)``."""
    n = len(ordered)
    if n == 1:
        return ordered[0]
    v = (n - 1) * (q / 100)
    lo = math.floor(v)
    g = v - lo
    a, b = ordered[lo], ordered[min(lo + 1, n - 1)]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def summarize(values: Iterable[float]) -> DistributionSummary:
    """Compute a :class:`DistributionSummary` from a sample of values."""
    data = [float(value) for value in values]
    n = len(data)
    if n == 0:
        raise AnalysisError("cannot summarize an empty sample")
    if not all(map(math.isfinite, data)):
        raise AnalysisError("sample contains non-finite values")
    ordered = sorted(data)
    low, high = ordered[0], ordered[-1]
    raw_mean = (0.0 + _pairwise_sum(data, 0, n)) / n
    squares = [d * d for d in (value - raw_mean for value in data)]
    # The exact mean lies in [min, max], but pairwise-summation rounding can
    # push it a few ULPs outside (e.g. three identical denormals), so clamp
    # it back into the sample's range.
    return DistributionSummary(
        n=n,
        mean=min(max(raw_mean, low), high),
        std=math.sqrt((0.0 + _pairwise_sum(squares, 0, n)) / n),
        minimum=low,
        decile1=_percentile(ordered, 10.0),
        quartile1=_percentile(ordered, 25.0),
        median=_percentile(ordered, 50.0),
        quartile3=_percentile(ordered, 75.0),
        decile9=_percentile(ordered, 90.0),
        maximum=high,
    )
