"""Median and tail reporting for timing samples."""

from __future__ import annotations

import statistics

# Candidate tail percentiles in tenths of a percent, highest first.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def tail_permille(n: int) -> int | None:
    """Highest candidate percentile (in tenths) with at least ten samples beyond it."""
    for q in TAIL_PERMILLE:
        if n * (1000 - q) >= MIN_BEYOND * 1000:
            return q
    return None


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, the tail percentile with ten samples beyond it (if any), count."""
    values = list(values)
    q = tail_permille(len(values))
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_pct": None if q is None else q / 10,
        "tail": None if q is None else percentile(values, q / 10),
    }


def describe(summary: dict) -> str:
    n = summary["n"]
    if summary["tail_pct"] is None:
        return f"median of n={n}; no percentile above it has 10 samples beyond"
    return f"median of n={n}; p{summary['tail_pct']:g} {summary['tail']:.6g}"
