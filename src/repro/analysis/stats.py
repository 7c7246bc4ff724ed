"""Statistical helpers shared by the trace analyses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ReproError

__all__ = [
    "Ecdf",
    "ecdf",
    "bootstrap_ci",
    "exact_mean",
    "exact_sum",
    "summarize",
    "SummaryStats",
]


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF: sorted values and cumulative probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def at(self, x: float | np.ndarray) -> np.ndarray:
        """P(X <= x), evaluated by step interpolation."""
        return np.searchsorted(self.values, np.asarray(x), side="right") / len(
            self.values
        )

    def quantile(self, q: float | np.ndarray) -> np.ndarray:
        """Inverse CDF (empirical quantile)."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ReproError("quantiles must be in [0, 1]")
        idx = np.clip(
            np.ceil(q * len(self.values)).astype(int) - 1, 0, len(self.values) - 1
        )
        return self.values[idx]

    def mass_between(self, lo: float, hi: float) -> float:
        """P(lo <= X <= hi)."""
        return float(self.at(hi) - self.at(np.nextafter(lo, -np.inf)))


def ecdf(data: Sequence[float] | np.ndarray) -> Ecdf:
    """Build an empirical CDF from observations."""
    arr = np.sort(np.asarray(data, dtype=float))
    if arr.size == 0:
        raise ReproError("ecdf needs at least one observation")
    if np.any(~np.isfinite(arr)):
        raise ReproError("ecdf data must be finite")
    return Ecdf(values=arr, probs=np.arange(1, arr.size + 1) / arr.size)


def exact_sum(values: Sequence[float] | np.ndarray) -> int:
    """The exact sum of finite doubles, as an integer count of 2**-1074.

    Every finite double is an integer multiple of 2**-1074, the smallest
    subnormal, so in that unit the sum is an integer: nothing rounds, and
    partial sums merge by integer ``+`` in any grouping and order.  Each
    value splits (:func:`numpy.frexp`) into a 53-bit integer mantissa and
    an exponent; the mantissas that share an exponent are summed as
    Python ints and shifted into place once.
    """
    frac, exp = np.frexp(np.asarray(values, dtype=np.float64).ravel())
    mant = (frac * 2.0**53).astype(np.int64)  # exact: |frac| < 1, 53 bits
    total = 0
    for e in np.unique(exp).tolist():
        part = sum(mant[exp == e].tolist())
        # A value is mant * 2**(e - 53), i.e. mant << (e + 1021) units.  A
        # subnormal's negative shift is exact: its mantissa ends in zeros.
        shift = e + 1021
        total += part << shift if shift >= 0 else part >> -shift
    return total


def exact_mean(total: int, n: int) -> float:
    """The mean of ``n`` values whose :func:`exact_sum` is ``total``.

    One correctly rounded ``int / int`` division; NaN when ``n == 0``,
    as ``np.mean`` of an empty array.
    """
    return total / (n << 1074) if n else float("nan")


def bootstrap_ci(
    data: Sequence[float] | np.ndarray,
    statistic: Callable[[np.ndarray], float] = np.mean,
    *,
    n_boot: int = 2000,
    confidence: float = 0.95,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, float, float]:
    """(point estimate, ci_low, ci_high) via the percentile bootstrap."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise ReproError("bootstrap_ci needs data")
    if not 0 < confidence < 1:
        raise ReproError("confidence must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    point = float(statistic(arr))
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    stats = np.array([statistic(arr[row]) for row in idx])
    alpha = (1 - confidence) / 2
    lo, hi = np.quantile(stats, [alpha, 1 - alpha])
    return point, float(lo), float(hi)


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float


def summarize(data: Sequence[float] | np.ndarray) -> SummaryStats:
    """Basic summary statistics of a sample."""
    arr = np.asarray(data, dtype=float)
    if arr.size == 0:
        raise ReproError("summarize needs data")
    return SummaryStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
    )
