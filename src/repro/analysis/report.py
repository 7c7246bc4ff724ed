"""Plain-text rendering of the reproduced tables and figures.

The benchmarks print these renderings so every paper artifact has a
regenerable textual counterpart (no plotting stack is assumed).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..contention.sweeps import (
    Figure1Result,
    Figure2Result,
    Figure3Result,
    Figure4Result,
)
from ..units import DAY, fmt_duration, is_weekend
from .ascii import render_figure6_chart, render_figure7_chart
from .causes import CauseBreakdown
from .daily import DailyPattern
from .intervals import IntervalDistribution

__all__ = [
    "render_table",
    "render_figure1",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_table2",
    "render_figure6",
    "render_figure7",
    "render_section5",
    "render_section5_text",
    "TOO_SHORT",
]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def render_figure1(result: Figure1Result) -> str:
    """Figure 1 as a table: reduction rate per (L_H, M)."""
    headers = ["L_H"] + [f"M={m}" for m in result.group_sizes]
    rows = []
    for i, lh in enumerate(result.lh_grid):
        row = [f"{lh:.1f}"]
        for j in range(len(result.group_sizes)):
            r = result.reduction[i, j]
            row.append("-" if np.isnan(r) else _pct(float(r)))
        rows.append(row)
    th = result.threshold()
    title = (
        f"Figure 1({'a' if result.guest_nice == 0 else 'b'}): host CPU usage "
        f"reduction, guest nice {result.guest_nice} "
        f"(5% crossing at L_H={th if th is not None else '>1.0'})"
    )
    return render_table(headers, rows, title=title)


def render_figure2(result: Figure2Result) -> str:
    headers = ["L_H"] + [f"nice {p}" for p in result.priorities]
    rows = [
        [f"{lh:.1f}"] + [_pct(float(r)) for r in result.reduction[i]]
        for i, lh in enumerate(result.lh_grid)
    ]
    return render_table(
        headers, rows, title="Figure 2: reduction rate vs guest priority"
    )


def render_figure3(result: Figure3Result) -> str:
    headers = ["host+guest", "guest usage (nice 0)", "guest usage (nice 19)", "gap"]
    rows = []
    for k, label in enumerate(result.labels):
        u0 = float(result.guest_usage_nice0[k])
        u19 = float(result.guest_usage_nice19[k])
        rows.append([label, f"{u0:.3f}", f"{u19:.3f}", f"{u0 - u19:+.3f}"])
    title = (
        "Figure 3: guest CPU usage at equal vs lowest priority "
        f"(mean gap {result.mean_gap * 100:.1f} pp)"
    )
    return render_table(headers, rows, title=title)


def render_figure4(result: Figure4Result) -> str:
    guests = sorted({c.guest for c in result.cells})
    hosts = sorted({c.host for c in result.cells})
    blocks = []
    for nice in sorted({c.guest_nice for c in result.cells}):
        headers = ["host"] + guests
        rows = []
        for h in hosts:
            row = [h]
            for g in guests:
                cell = result.cell(g, h, nice)
                star = "*" if cell.thrashing else ""
                row.append(f"{_pct(cell.reduction)}{star}")
            rows.append(row)
        blocks.append(
            render_table(
                headers,
                rows,
                title=f"Figure 4({'a' if nice == 0 else 'b'}): guest priority "
                f"{nice} (* = memory thrashing)",
            )
        )
    return "\n\n".join(blocks)


def render_table2(b: CauseBreakdown) -> str:
    freq = b.frequency_ranges()
    pct = b.percentage_ranges()
    headers = ["Categories", "Total", "CPU contention", "Memory contention", "URR"]
    rows = [
        [
            "Frequency",
            _fmt_range(freq["total"]),
            _fmt_range(freq["cpu"]),
            _fmt_range(freq["memory"]),
            _fmt_range(freq["revocation"]),
        ],
        [
            "Percentage",
            "100%",
            _fmt_pct_range(pct["cpu"]),
            _fmt_pct_range(pct["memory"]),
            _fmt_pct_range(pct["revocation"]),
        ],
    ]
    extra = (
        f"reboot share of URR: {b.reboot_share_of_urr * 100:.0f}% "
        f"(paper: ~90%); UEC share overall: {b.uec_share * 100:.0f}%"
    )
    return (
        render_table(headers, rows, title="Table 2: unavailability by cause")
        + "\n"
        + extra
    )


def render_figure6(dist: IntervalDistribution) -> str:
    grid, wk, we = dist.cdf_series()
    headers = ["length", "weekday CDF", "weekend CDF"]
    rows = [
        [fmt_duration(h * 3600), f"{wk[i]:.3f}", f"{we[i]:.3f}"]
        for i, h in enumerate(grid)
        if i % 2 == 0
    ]
    lm = dist.landmarks()
    title = (
        "Figure 6: availability-interval length CDF "
        f"(weekday mean {lm['weekday_mean_h']:.2f}h, "
        f"weekend mean {lm['weekend_mean_h']:.2f}h, "
        f"{lm['frac_below_5min'] * 100:.1f}% below 5min)"
    )
    return render_table(headers, rows, title=title)


def render_figure7(pattern: DailyPattern) -> str:
    blocks = []
    for weekend, label in ((False, "Weekdays"), (True, "Weekends")):
        mean = pattern.mean_profile(weekend=weekend)
        lo, hi = pattern.range_profile(weekend=weekend)
        headers = ["hour", "mean", "min", "max"]
        rows = [
            [f"{h + 1:d}", f"{mean[h]:.1f}", f"{lo[h]:d}", f"{hi[h]:d}"]
            for h in range(24)
        ]
        dev = pattern.deviation_summary(weekend=weekend)
        blocks.append(
            render_table(
                headers,
                rows,
                title=f"Figure 7 ({label}): unavailability per hour "
                f"(cross-day CV {dev['mean_cv']:.2f})",
            )
        )
    return "\n\n".join(blocks)


#: Why a figure is left out of a trace too short to show it.
TOO_SHORT = {
    "figure6": "needs weekday and weekend availability intervals "
    "(trace too short)",
    "figure7": "needs both weekday and weekend days (trace too short)",
}


def render_section5(
    breakdown: CauseBreakdown,
    dist: IntervalDistribution,
    pattern: DailyPattern,
    *,
    span: float,
    start_weekday: int,
) -> list[tuple[str, str, Optional[str]]]:
    """Table 2, Figure 6 and Figure 7 as ``(name, title, text)``, in order.

    ``text`` is what ``repro-fgcs analyze`` prints and ``report`` writes
    to ``<name>.txt``.  It is ``None`` for a figure the trace is too short
    to show — short traces may cover only one day type — and
    :data:`TOO_SHORT` holds the reason.  ``dist`` is an
    :class:`~repro.analysis.intervals.IntervalDistribution` or the
    streamed distribution; both render alike.
    """
    figure6 = figure7 = None
    if dist.weekday_count and dist.weekend_count:
        figure6 = render_figure6(dist) + "\n\n" + render_figure6_chart(dist)
    weekend_days = {
        is_weekend(d * DAY, start_weekday) for d in range(int(span // DAY))
    }
    if weekend_days == {False, True}:
        figure7 = "\n\n".join(
            (
                render_figure7(pattern),
                render_figure7_chart(pattern, weekend=False),
                render_figure7_chart(pattern, weekend=True),
            )
        )
    return [
        ("table2", "Table 2", render_table2(breakdown)),
        ("figure6", "Figure 6", figure6),
        ("figure7", "Figure 7", figure7),
    ]


def render_section5_text(
    breakdown: CauseBreakdown,
    dist: IntervalDistribution,
    pattern: DailyPattern,
    *,
    span: float,
    start_weekday: int,
) -> str:
    """The three artifacts as ``repro-fgcs analyze`` prints them.

    :func:`render_section5`'s blocks in order, a skipped figure as its
    reason.
    """
    sections = render_section5(
        breakdown, dist, pattern, span=span, start_weekday=start_weekday
    )
    return "\n\n".join(
        f"{title} skipped: {TOO_SHORT[name]}" if text is None else text
        for name, title, text in sections
    )


def _fmt_range(r: tuple[int, int]) -> str:
    return f"{r[0]}-{r[1]}"


def _fmt_pct_range(r: tuple[float, float]) -> str:
    return f"{100 * r[0]:.0f}-{100 * r[1]:.0f}%"
