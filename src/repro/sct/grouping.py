"""Group metric tuples by concurrency level.

For each observed concurrency ``Q_n`` within the window the paper
computes the average throughput and response time, producing the
``{Q̄_n, TP̄_n, RT̄_n}`` series that the estimation phase analyses. We
bucket the (fractional, time-weighted) measured concurrency to the
nearest integer, matching the paper's integer concurrency axis.

Two entry points share one band-key function (:func:`band_key`):
:func:`bucketize` groups a list of tuples in one pass (offline
analyses), and :class:`BandWindow` keeps the same grouping of a
server's sliding sample window up to date as samples arrive and leave
(the online estimator, which would otherwise re-band the whole window
on every adaption tick).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.monitoring.interval import IntervalSample
from repro.sct.tuples import MetricTuple, tuple_fields

__all__ = [
    "BandWindow",
    "ConcurrencyBucket",
    "band_key",
    "band_representative",
    "bucketize",
]


@dataclass(slots=True)
class ConcurrencyBucket:
    """All observations at one (rounded) concurrency level."""

    q: int
    tps: list[float] = field(default_factory=list)
    rts: list[float] = field(default_factory=list)
    utils: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Number of observations in the bucket."""
        return len(self.tps)

    @property
    def mean_tp(self) -> float:
        """Average throughput at this concurrency."""
        return float(np.mean(self.tps)) if self.tps else math.nan

    @property
    def std_tp(self) -> float:
        """Sample standard deviation of throughput (ddof=1)."""
        if len(self.tps) < 2:
            return 0.0
        return float(np.std(self.tps, ddof=1))

    @property
    def mean_rt(self) -> float:
        """Average response time at this concurrency (NaN if none)."""
        valid = [r for r in self.rts if not math.isnan(r)]
        return float(np.mean(valid)) if valid else math.nan

    @property
    def mean_util(self) -> float:
        """Average busy utilisation of the critical resource."""
        return float(np.mean(self.utils)) if self.utils else math.nan

    def tp_array(self) -> np.ndarray:
        """Throughput observations as an array (for the Welch test)."""
        return np.asarray(self.tps, dtype=float)


# Geometric banding: exact below _BAND_BASE, bands growing by
# _BAND_RATIO above it. Q_lower almost always lives in the exact
# region, so the estimate keeps unit resolution where it matters while
# the noisy high-concurrency tail is pooled into statistically
# meaningful buckets.
_BAND_BASE = 16
_BAND_RATIO = 1.12
_LOG_RATIO = math.log(_BAND_RATIO)


def band_representative(q: int) -> int:
    """Map a concurrency level to its band's representative level."""
    if q <= _BAND_BASE:
        return q
    k = int(math.log(q / _BAND_BASE) / _LOG_RATIO)
    lo = _BAND_BASE * _BAND_RATIO**k
    hi = lo * _BAND_RATIO
    rep = int(round(math.sqrt(lo * hi)))
    return max(_BAND_BASE + 1, rep)


def band_key(q: float, width: int | None = None) -> int:
    """Band representative of a measured (fractional) concurrency.

    ``width=None`` bands geometrically (:func:`band_representative`);
    an explicit ``width`` forces uniform bands of that many adjacent
    levels, each represented by its middle level.
    """
    level = max(1, int(round(q)))
    if width is None:
        return band_representative(level)
    band = (level - 1) // width
    return band * width + (width + 1) // 2


def _check_width(width: int | None) -> None:
    if width is not None and width < 1:
        raise ValueError(f"width must be >= 1, got {width!r}")


def bucketize(
    tuples: Iterable[MetricTuple],
    min_samples: int = 3,
    width: int | None = None,
) -> dict[int, ConcurrencyBucket]:
    """Bucket tuples by concurrency band (see :func:`band_key`).

    ``width=1`` reproduces plain per-level bucketing for tests and
    offline analyses. Buckets appear in the order their band is first
    seen in ``tuples``.

    Buckets with fewer than ``min_samples`` observations are discarded:
    a handful of noisy intervals must not define the capacity curve at
    their concurrency level.
    """
    _check_width(width)
    buckets: dict[int, ConcurrencyBucket] = {}
    for t in tuples:
        rep = band_key(t.q, width)
        bucket = buckets.get(rep)
        if bucket is None:
            bucket = buckets[rep] = ConcurrencyBucket(q=rep)
        bucket.tps.append(t.tp)
        bucket.rts.append(t.rt)
        bucket.utils.append(t.util)
    return {q: b for q, b in buckets.items() if b.count >= min_samples}


class _Band:
    """One band's members in window order, as parallel deques."""

    __slots__ = ("q", "seqs", "tps", "rts", "utils")

    def __init__(self, q: int) -> None:
        self.q = q
        self.seqs: deque[int] = deque()
        self.tps: deque[float] = deque()
        self.rts: deque[float] = deque()
        self.utils: deque[float] = deque()


class BandWindow:
    """Incremental :func:`bucketize` over one server's sliding window.

    Holds the samples of a monitor's deque whose interval ended at or
    after a cutoff, already converted (``tuple_fields``) and banded
    (:func:`band_key`). :meth:`sync` ingests only the samples
    appended since the last call and drops those that left the window
    — by age, by the deque's ``maxlen``, or by a trim or reset of the
    deque — so an estimate costs in proportion to new evidence, not to
    the window size.

    :meth:`buckets` returns exactly what ``bucketize(tuples_from_samples
    (window), min_samples, width)`` would: the same bands, in order of
    first appearance, with each band's observations in window order.
    Statistics are left to :class:`ConcurrencyBucket`, computed from
    those lists — there are no running sums, because ``np.mean`` sums
    pairwise and a running total would differ in the last bit.
    """

    def __init__(self, width: int | None = None) -> None:
        _check_width(width)
        self.width = width
        # (sequence number, t_end, band or None for an idle interval),
        # oldest first.
        self._entries: deque[tuple[int, float, _Band | None]] = deque()
        self._bands: dict[int, _Band] = {}
        # Memo of band_key, the costly step of a push, by rounded level
        # (band_key rounds first, so band_key(round(q)) == band_key(q)).
        self._keys: dict[int, int] = {}
        self._seen = 0  # sequence number of the next sample to ingest
        self.n_tuples = 0  # non-idle samples in the window

    def __len__(self) -> int:
        """Samples in the window, idle intervals included."""
        return len(self._entries)

    @property
    def newest(self) -> float:
        """End time of the newest sample in the window (-inf if empty)."""
        return self._entries[-1][1] if self._entries else float("-inf")

    def sync(
        self, samples: Sequence[IntervalSample], appended: int, cutoff: float
    ) -> None:
        """Catch up with a monitor's sample deque.

        ``samples`` holds the newest ``len(samples)`` of the
        ``appended`` samples ever recorded, in time order: the sample
        at index ``i`` has sequence number ``appended - len(samples) +
        i``, and anything older has been evicted from the deque. The
        window keeps the samples with ``t_end >= cutoff``; ``cutoff``
        must not decrease between calls.
        """
        first = appended - len(samples)
        entries = self._entries
        while entries and (entries[0][0] < first or entries[0][1] < cutoff):
            band = entries.popleft()[2]
            if band is not None:
                self._pop_oldest(band)
        todo = appended - max(self._seen, first)
        fresh: list[IntervalSample] = []
        if todo > 0:
            for s in reversed(samples):
                if len(fresh) == todo or s.t_end < cutoff:
                    break
                fresh.append(s)
        seq = appended - len(fresh)
        for s in reversed(fresh):
            self._push(seq, s)
            seq += 1
        self._seen = appended

    def _push(self, seq: int, sample: IntervalSample) -> None:
        fields = tuple_fields(sample)
        if fields is None:
            self._entries.append((seq, sample.t_end, None))
            return
        q, tp, rt, util = fields
        level = int(round(q))
        rep = self._keys.get(level)
        if rep is None:
            rep = self._keys[level] = band_key(level, self.width)
        band = self._bands.get(rep)
        if band is None:
            band = self._bands[rep] = _Band(rep)
        band.seqs.append(seq)
        band.tps.append(tp)
        band.rts.append(rt)
        band.utils.append(util)
        self._entries.append((seq, sample.t_end, band))
        self.n_tuples += 1

    def _pop_oldest(self, band: _Band) -> None:
        band.seqs.popleft()
        band.tps.popleft()
        band.rts.popleft()
        band.utils.popleft()
        if not band.seqs:
            del self._bands[band.q]
        self.n_tuples -= 1

    def buckets(self, min_samples: int = 3) -> dict[int, ConcurrencyBucket]:
        """The window's buckets with at least ``min_samples`` members,
        as fresh lists (later syncs never alter a returned bucket)."""
        live = [b for b in self._bands.values() if len(b.seqs) >= min_samples]
        live.sort(key=lambda b: b.seqs[0])
        return {
            b.q: ConcurrencyBucket(b.q, list(b.tps), list(b.rts), list(b.utils))
            for b in live
        }
