"""The Scatter-Concurrency-Throughput (SCT) model — the paper's core.

Given fine-grained per-interval tuples ``{Q, TP, RT}`` of one server
(from :mod:`repro.monitoring`), the model

1. buckets the tuples by concurrency (:mod:`~repro.sct.grouping`),
2. locates the maximum-throughput plateau with statistical
   intervention analysis (:mod:`~repro.sct.intervention`),
3. reports the rational concurrency range ``[Q_lower, Q_upper]`` and
   recommends ``Q_lower`` — the minimum concurrency achieving maximum
   throughput, hence also minimum response time within the range —
   as the optimal soft-resource allocation
   (:mod:`~repro.sct.model`).
"""

from repro.sct.bootstrap import QLowerInterval, bootstrap_q_lower
from repro.sct.drift import DriftReport, detect_drift
from repro.sct.grouping import ConcurrencyBucket, band_representative, bucketize
from repro.sct.intervention import welch_t_pvalue
from repro.sct.model import SCTEstimate, SCTModel
from repro.sct.smoothing import trend_line
from repro.sct.tuples import MetricTuple, tuples_from_samples

__all__ = [
    "ConcurrencyBucket",
    "band_representative",
    "bucketize",
    "QLowerInterval",
    "bootstrap_q_lower",
    "DriftReport",
    "detect_drift",
    "welch_t_pvalue",
    "SCTEstimate",
    "SCTModel",
    "trend_line",
    "MetricTuple",
    "tuples_from_samples",
]
