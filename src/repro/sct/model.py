"""The SCT estimator: rational concurrency range and optimal setting.

Implements the Estimation Phase of Fig. 4: given bucketed ``{Q, TP, RT}``
observations, locate the throughput plateau and report

* ``q_lower`` — minimum concurrency sustaining maximum throughput: the
  **optimal soft-resource allocation** (lowest response time within the
  plateau, per the Utilization Law);
* ``q_upper`` — maximum concurrency before multithreading overhead
  pulls throughput off the plateau.

A concurrency level is *on the plateau* when its mean throughput is
within ``tolerance`` of the peak **or** statistically indistinguishable
from the peak (Welch p ≥ ``alpha``). The range is grown outward from
the peak bucket and stops at the first bucket that is confidently off
the plateau, so isolated noisy buckets inside the plateau do not split
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import EstimationError
from repro.monitoring.interval import IntervalSample
from repro.sct.grouping import BandWindow, ConcurrencyBucket, bucketize
from repro.sct.intervention import welch_t_pvalue
from repro.sct.tuples import MetricTuple

__all__ = ["SCTEstimate", "SCTModel"]


@dataclass(frozen=True, slots=True)
class SCTEstimate:
    """Result of one SCT estimation."""

    q_lower: int
    q_upper: int
    tp_max: float
    optimal: int
    # Whether the ascending stage was observed below q_lower (if not,
    # the true optimum may be below the smallest observed concurrency
    # and q_lower is only an upper bound on it).
    ascending_observed: bool
    # Whether the plateau/descending stage was observed above q_upper
    # (if not, the server never saturated in this window and the true
    # optimum may be above q_upper).
    saturation_observed: bool
    # Mean busy utilisation of the server's critical resource across
    # the plateau buckets, and whether it is high enough that the
    # plateau is the server's *own* hardware limit (as opposed to a
    # stall on a congested downstream tier — cross-tier contamination).
    plateau_util: float
    hardware_limited: bool
    # When the model was configured with an SLA latency threshold
    # (Fig. 6b's dashed line): whether the recommended setting keeps the
    # server-level response time under it. False means no concurrency
    # setting can satisfy the SLA — hardware must scale.
    sla_met: bool
    n_tuples: int
    buckets: dict[int, ConcurrencyBucket] = field(repr=False, default_factory=dict)

    @property
    def confident(self) -> bool:
        """True when both curve stages needed to pin the optimum were seen."""
        return self.ascending_observed and self.saturation_observed

    def describe(self) -> str:
        """One-line human-readable summary."""
        flags = []
        if not self.ascending_observed:
            flags.append("no-ascending-evidence")
        if not self.saturation_observed:
            flags.append("unsaturated")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"rational range [{self.q_lower}, {self.q_upper}], "
            f"TPmax={self.tp_max:.1f}/s, optimal={self.optimal}{suffix}"
        )


class SCTModel:
    """Online estimator of the rational concurrency range of a server.

    Parameters
    ----------
    tolerance:
        Relative throughput slack defining the plateau (``0.05`` means
        buckets within 95 % of the peak are plateau members).
    alpha:
        Significance level of the Welch test; buckets whose throughput
        cannot be distinguished from the peak at this level stay in the
        plateau even if their mean dips below the tolerance band.
    min_samples:
        Minimum observations per concurrency bucket.
    min_buckets:
        Minimum distinct concurrency levels needed to estimate at all.
    bucket_width:
        Concurrency band width for grouping (None = adaptive; see
        :func:`repro.sct.grouping.bucketize`).
    util_threshold:
        Minimum mean busy utilisation of the critical resource across
        the plateau for the estimate to be flagged ``hardware_limited``.
    """

    def __init__(
        self,
        tolerance: float = 0.05,
        alpha: float = 0.05,
        min_samples: int = 4,
        min_buckets: int = 3,
        util_threshold: float = 0.7,
        bucket_width: int | None = None,
        latency_threshold: float | None = None,
    ) -> None:
        if not 0.0 < tolerance < 1.0:
            raise EstimationError(f"tolerance must be in (0, 1), got {tolerance!r}")
        if not 0.0 < alpha < 1.0:
            raise EstimationError(f"alpha must be in (0, 1), got {alpha!r}")
        if min_samples < 1 or min_buckets < 2:
            raise EstimationError("min_samples >= 1 and min_buckets >= 2 required")
        if not 0.0 < util_threshold <= 1.0:
            raise EstimationError(
                f"util_threshold must be in (0, 1], got {util_threshold!r}"
            )
        if latency_threshold is not None and latency_threshold <= 0.0:
            raise EstimationError(
                f"latency_threshold must be > 0, got {latency_threshold!r}"
            )
        self.tolerance = float(tolerance)
        self.alpha = float(alpha)
        self.min_samples = int(min_samples)
        self.min_buckets = int(min_buckets)
        self.util_threshold = float(util_threshold)
        self.bucket_width = bucket_width
        # The paper's Fig. 6(b) draws an SLA line on the RT-vs-Q scatter:
        # the optimal setting is Q_lower *and* must keep the server-level
        # response time under the threshold. When the whole plateau
        # violates the SLA, Q_lower is still reported (hardware must
        # scale instead — no concurrency setting can fix an SLA the
        # plateau itself breaks).
        self.latency_threshold = latency_threshold

    # ------------------------------------------------------------------
    def estimate_from_samples(self, samples: Iterable[IntervalSample]) -> SCTEstimate:
        """Estimate from raw monitoring samples, banded as the online
        estimator bands them (one :class:`BandWindow` pass)."""
        samples = list(samples)
        window = BandWindow(self.bucket_width)
        window.sync(samples, appended=len(samples), cutoff=-math.inf)
        return self.estimate_buckets(
            window.buckets(self.min_samples), window.n_tuples
        )

    def estimate(self, tuples: list[MetricTuple]) -> SCTEstimate:
        """Estimate the rational concurrency range from metric tuples."""
        return self.estimate_buckets(
            bucketize(tuples, self.min_samples, self.bucket_width), len(tuples)
        )

    def estimate_buckets(
        self, buckets: dict[int, ConcurrencyBucket], n_tuples: int
    ) -> SCTEstimate:
        """Estimate from already-grouped observations.

        ``buckets`` is what :func:`~repro.sct.grouping.bucketize` (or a
        :class:`~repro.sct.grouping.BandWindow`) returns for this
        model's ``min_samples`` and ``bucket_width``; ``n_tuples`` is
        the number of non-idle tuples they were grouped from.

        Raises :class:`EstimationError` when the window does not contain
        enough distinct concurrency levels — the caller (the ConScale
        estimator loop) treats that as "keep the current setting".
        """
        if len(buckets) < self.min_buckets:
            raise EstimationError(
                f"need >= {self.min_buckets} concurrency levels with >= "
                f"{self.min_samples} samples, got {len(buckets)}"
            )
        qs = sorted(buckets)
        means = {q: buckets[q].mean_tp for q in qs}
        peak_q = max(qs, key=means.__getitem__)
        tp_max = means[peak_q]
        if tp_max <= 0.0:
            raise EstimationError("window contains no completed requests")
        peak = buckets[peak_q].tp_array()

        def on_plateau(q: int) -> bool:
            # Primary criterion: within the tolerance band of the peak.
            # The Welch test may *rescue* a borderline bucket whose dip
            # is statistically indistinguishable from the peak, but only
            # within a bounded band (3x tolerance): with small per-
            # bucket samples the test has low power, and an unbounded
            # "cannot reject" rule would stretch the plateau over
            # arbitrarily bad buckets. The test runs only for the
            # buckets that reach it.
            mean = means[q]
            if mean >= (1.0 - self.tolerance) * tp_max:
                return True
            return (
                mean >= (1.0 - 3.0 * self.tolerance) * tp_max
                and welch_t_pvalue(buckets[q].tp_array(), peak) >= self.alpha
            )

        peak_idx = qs.index(peak_q)
        lo_idx = peak_idx
        while lo_idx > 0 and on_plateau(qs[lo_idx - 1]):
            lo_idx -= 1
        hi_idx = peak_idx
        while hi_idx < len(qs) - 1 and on_plateau(qs[hi_idx + 1]):
            hi_idx += 1

        q_lower = qs[lo_idx]
        q_upper = qs[hi_idx]
        ascending_observed = lo_idx > 0
        # Saturation requires positive evidence that throughput stops
        # growing: at least one observed concurrency level ABOVE the
        # plateau whose throughput fell off it. A window in which the
        # plateau extends to the largest concurrency seen is still in
        # the ascending stage as far as we can tell, and its "optimum"
        # is only a lower-bound artefact of limited load.
        saturation_observed = hi_idx < len(qs) - 1
        plateau_buckets = [buckets[qs[i]] for i in range(lo_idx, hi_idx + 1)]
        plateau_util = float(
            sum(b.mean_util for b in plateau_buckets) / len(plateau_buckets)
        )
        optimal = q_lower
        sla_met = True
        if self.latency_threshold is not None:
            # Within the rational range, pick the largest concurrency
            # still meeting the SLA; RT grows with Q inside the range,
            # so Q_lower is the best candidate and anything above it is
            # only acceptable while under the line. If even Q_lower
            # breaks the SLA, report it with sla_met=False.
            rt_lower = buckets[q_lower].mean_rt
            sla_met = not (rt_lower > self.latency_threshold)
        return SCTEstimate(
            q_lower=q_lower,
            q_upper=q_upper,
            tp_max=tp_max,
            optimal=optimal,
            ascending_observed=ascending_observed,
            saturation_observed=saturation_observed,
            plateau_util=plateau_util,
            hardware_limited=plateau_util >= self.util_threshold,
            sla_met=sla_met,
            n_tuples=n_tuples,
            buckets=buckets,
        )
