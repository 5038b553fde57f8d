"""Scatter-plot trend lines.

The paper's Fig. 6 overlays a smoothed trend (gnuplot's cubic-spline /
Bézier smoothing) on the raw 50 ms scatter. We provide the same view
with a shape-preserving PCHIP interpolant over the per-concurrency
bucket means, which cannot overshoot the data the way an unconstrained
cubic spline can.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import EstimationError
from repro.sct.grouping import ConcurrencyBucket

__all__ = ["trend_line"]


def trend_line(
    buckets: dict[int, ConcurrencyBucket],
    metric: str = "tp",
    points: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed ``metric`` ("tp" or "rt") versus concurrency.

    Returns ``(q_grid, values)`` suitable for plotting next to the raw
    scatter. Buckets whose metric is NaN (e.g. RT buckets with no
    completions) are skipped.

    scipy is imported here rather than at module top: no run draws a
    trend line, so no run should pay for importing scipy.
    """
    from scipy.interpolate import PchipInterpolator

    if metric not in ("tp", "rt"):
        raise EstimationError(f"metric must be 'tp' or 'rt', got {metric!r}")
    pairs = []
    for q in sorted(buckets):
        value = buckets[q].mean_tp if metric == "tp" else buckets[q].mean_rt
        if not math.isnan(value):
            pairs.append((q, value))
    if len(pairs) < 2:
        raise EstimationError(
            f"need >= 2 buckets with data to draw a trend, got {len(pairs)}"
        )
    qs = np.array([p[0] for p in pairs], dtype=float)
    vs = np.array([p[1] for p in pairs], dtype=float)
    interp = PchipInterpolator(qs, vs)
    grid = np.linspace(qs[0], qs[-1], points)
    return grid, interp(grid)
