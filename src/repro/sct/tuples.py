"""Metric tuples: the SCT model's input records.

The Real-time Metrics Collection phase of the paper gathers, for every
short interval (50 ms), a tuple of the server's concurrency,
throughput and response time. Intervals in which the server was
completely idle carry no information about the capacity curve and are
dropped here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.monitoring.interval import IntervalSample

__all__ = ["MetricTuple", "tuple_fields", "tuples_from_samples"]


@dataclass(frozen=True, slots=True)
class MetricTuple:
    """One ``{Q, TP, RT}`` observation.

    ``rt`` is NaN when no request completed in the interval (the
    concurrency/throughput pair is still usable for the TP curve).
    ``util`` is the busy utilisation of the server's most-utilised
    hardware resource during the interval — used to tell a *hardware*
    throughput plateau (the server itself saturated) from a plateau
    caused by stalls on a congested downstream tier.
    """

    q: float
    tp: float
    rt: float
    util: float = 1.0


def tuple_fields(s: IntervalSample) -> tuple[float, float, float, float] | None:
    """One sample's ``(q, tp, rt, util)``, or None for an idle interval.

    An interval is *idle* when the time-weighted concurrency is
    (numerically) zero; intervals with concurrency but zero completions
    are kept — they are genuine evidence of a stalled/overloaded server
    and contribute TP = 0 observations to their concurrency bucket.
    """
    if s.concurrency <= 1e-9:
        return None
    rt = s.response_time if not math.isnan(s.response_time) else math.nan
    util = max(s.utilization.values()) if s.utilization else 1.0
    return s.concurrency, s.throughput, rt, util


def tuples_from_samples(samples: Iterable[IntervalSample]) -> list[MetricTuple]:
    """Convert monitoring samples to SCT tuples, dropping idle intervals
    (see :func:`tuple_fields`)."""
    out: list[MetricTuple] = []
    for s in samples:
        fields = tuple_fields(s)
        if fields is not None:
            out.append(MetricTuple(*fields))
    return out
