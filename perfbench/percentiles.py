"""Latency summaries under the benchmark's percentile rule.

A timing is reported as its median plus the highest standard percentile
that still has at least :data:`MIN_BEYOND` samples beyond it, together
with the sample count.  A failed or refused request counts as missing
every latency limit, so it enters the sample as ``+inf``.

Percentiles are nearest-rank (NumPy's ``inverted_cdf``): the reported
value is always one of the observed samples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)


def rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``n`` samples
    (exact: ``pct`` is read as the decimal it is written as)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile of an ascending sequence (nearest rank)."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[rank(len(sorted_values), pct) - 1]


def supported(n: int, pct: float) -> bool:
    """True when at least MIN_BEYOND of ``n`` samples lie beyond ``pct``."""
    return n - rank(n, pct) >= MIN_BEYOND


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile ``n`` samples support, if any."""
    best = None
    for pct in TAIL_PERCENTILES:
        if supported(n, pct):
            best = pct
    return best


class Summary:
    """Median and tail of one timing sample (values in seconds)."""

    def __init__(self, values: Sequence[float], failures: int = 0) -> None:
        self.values = sorted(list(values) + [math.inf] * failures)
        self.n = len(self.values)
        self.failures = failures

    def pct(self, pct: float) -> float:
        """The ``pct`` percentile; raises when the sample cannot support it."""
        if pct > 50.0 and not supported(self.n, pct):
            need = next(n for n in range(self.n, 10**7) if supported(n, pct))
            raise ValueError(f"p{pct:g} needs {need} samples, have {self.n}")
        return nearest_rank(self.values, pct)

    @property
    def p50(self) -> float:
        return nearest_rank(self.values, 50.0)

    @property
    def tail(self) -> Optional[float]:
        """The highest supported tail percentile (None below 100 samples)."""
        return tail_percentile(self.n)

    def describe(self, scale: float = 1e3, unit: str = "ms") -> str:
        """One human-readable line: median, supported tail, sample count."""
        if not self.n:
            return "no samples"
        parts = [f"p50 {self.p50 * scale:.3f} {unit}"]
        tail = self.tail
        if tail is not None:
            parts.append(f"p{tail:g} {self.pct(tail) * scale:.3f} {unit}")
        parts.append(f"max {self.values[-1] * scale:.3f} {unit}")
        parts.append(f"n={self.n}")
        if self.failures:
            parts.append(f"failed={self.failures}")
        return ", ".join(parts)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
