"""Statistical intervention analysis for plateau detection.

Malkowski et al.'s intervention analysis (the paper's reference [18])
detects bottlenecks by testing whether a metric's distribution differs
significantly between operating regions. The SCT model applies the
same idea to the throughput-vs-concurrency curve: a concurrency level
belongs to the maximum-throughput plateau iff its throughput sample is
*not* significantly below the best bucket's sample.

We use Welch's unequal-variance t-test (one-sided: "is this bucket's
mean lower than the peak's?"). A small implementation note: with the
50 ms intervals the per-bucket samples are plentiful but heteroscedastic
— idle-ish intervals mix with busy ones — which is exactly the case
Welch's test is built for.

The Student-t CDF behind the p-value is computed here with the standard
library only (:func:`_student_t_cdf`: a regularised incomplete beta
from ``math.lgamma``/``math.log1p`` and a continued fraction), so no
run imports scipy. It matches ``scipy.special.stdtr`` to 1e-12
absolute and 1e-9 relative (for p >= 1e-250) over df in [1, 5000] and
t in [-40, 40]; ``tests/sct/test_intervention.py`` checks this.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["welch_t_pvalue"]

_LN_SQRT_PI = 0.5 * math.log(math.pi)
#: Stirling-series coefficients B_2k / (2k (2k - 1)), k = 1..8; the
#: truncation error is below 1e-16 for arguments >= 8.
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
#: Continued-fraction stopping rule: a relative change of 2 ulp. No
#: (df, t) with df in [1e-2, 1e15] needs more than ~120 terms; the cap
#: only bounds the loop.
_CF_TOL = 4e-16
_CF_MAX_TERMS = 1000
_TINY = 1e-300
#: Above this df the normal CDF is used: it is within 1e-14 relative of
#: the t CDF for |t| <= 40, and the fraction's terms of order 1/df^2
#: would underflow near df = 1e150.
_NORMAL_DF = 1e20


def _stirling_tail(z: float) -> float:
    """``lgamma(z) - ((z - 1/2) ln z - z + ln sqrt(2 pi))`` for z >= 8."""
    zi2 = 1.0 / (z * z)
    acc = 0.0
    for coef in reversed(_STIRLING):
        acc = acc * zi2 + coef
    return acc / z


def _log_beta_half(h: float) -> float:
    """``ln B(h, 1/2)``.

    For large ``h``, ``lgamma(h) - lgamma(h + 1/2)`` loses about one ulp
    of ``lgamma(h)`` (8e-12 relative at df = 1e4). Stirling's series for
    the difference never subtracts two large terms.
    """
    if h < 8.0:
        return math.lgamma(h) + _LN_SQRT_PI - math.lgamma(h + 0.5)
    lgamma_ratio = (
        (h * math.log1p(0.5 / h) - 0.5)
        + 0.5 * math.log(h)
        + (_stirling_tail(h + 0.5) - _stirling_tail(h))
    )
    return _LN_SQRT_PI - lgamma_ratio


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction ``K`` of ``I_x(a, b) = x^a y^b / (a B(a, b)) K``.

    ``y`` is ``1 - x``, computed by the caller without rounding ``x``.
    The fraction is the even contraction of the classic
    ``1/(1 + d1/(1 + d2/(1 + ...)))``, that is
    ``1/(D0 - d1 d2/(D1 - d3 d4/(D2 - ...)))`` with
    ``D_m = 1 + d_2m + d_2m+1``, evaluated by modified Lentz. For
    ``b <= 1``, ``1 + d_2m+1`` is a sum of positive terms in ``y``, so
    a large ``a`` with ``x`` near 1 (large df, moderate t) loses no
    digits to cancellation.
    """
    r = (a + b) / (a + 1.0)  # -d_1 / x
    if b <= 1.0:
        f = ((1.0 - b) + (a + b) * y) / (a + 1.0)
    else:
        f = 1.0 - r * x
    c, d = f, 0.0
    for m in range(1, _CF_MAX_TERMS):
        a2m = a + 2.0 * m
        even = m * (b - m) / (a2m - 1.0) * x / a2m  # d_2m
        num = r * x * even  # -d_2m-1 d_2m
        r = (a + m) / a2m * (a + b + m) / (a2m + 1.0)  # -d_2m+1 / x
        if b <= 1.0:
            odd = ((2 * m + 1 - b) * a + m * (3 * m + 2 - b)) / a2m / (a2m + 1.0)
            odd += r * y
        else:
            odd = 1.0 - r * x
        den = odd + even
        d = den + num * d
        if abs(d) < _TINY:
            d = _TINY
        c = den + num / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _CF_TOL:
            break
    return 1.0 / f


def _student_t_cdf(df: float, t: float) -> float:
    """``P(T <= t)`` for Student's t with ``df`` degrees of freedom.

    With ``x = df/(df + t^2)`` and ``y = t^2/(df + t^2)``, the tail
    beyond ``|t|`` is ``1/2 I_x(df/2, 1/2)`` and the central mass is
    ``I_y(1/2, df/2)``. Each is used where its fraction is well
    conditioned: the tail when ``t^2 (df + 2) > 1.5 df``, which covers
    every small p so those keep full relative precision, and
    ``1/2 +- 1/2 I_y(1/2, df/2)`` otherwise. The switch is half the
    textbook ``t^2 (df + 2) > 3 df``; it keeps the central fraction's
    first denominator ``1 - (df + 1) y / 3`` at or above 1/2. NaN for a
    NaN argument or ``df <= 0``, as ``scipy.special.stdtr``.
    """
    if math.isnan(df) or math.isnan(t) or df <= 0.0:
        return math.nan
    if df > _NORMAL_DF:
        return 0.5 * math.erfc(-t / math.sqrt(2.0))
    t2 = t * t
    if t2 == 0.0:
        return 0.5
    if math.isinf(t2):
        return 0.0 if t < 0.0 else 1.0
    h = 0.5 * df
    s = df + t2
    x = df / s
    y = t2 / s
    # x^h y^(1/2) / B(h, 1/2), the prefactor both fractions share.
    front = math.exp(
        -h * math.log1p(t2 / df) + 0.5 * math.log(y) - _log_beta_half(h)
    )
    if t2 * (df + 2.0) > 1.5 * df:
        tail = front * _beta_cf(h, 0.5, x, y) / df
        return tail if t < 0.0 else 1.0 - tail
    half_central = front * _beta_cf(0.5, h, y, x)
    return 0.5 + half_central if t > 0.0 else 0.5 - half_central


def welch_t_pvalue(sample_a, sample_b) -> float:
    """One-sided Welch p-value for ``mean(a) < mean(b)``.

    Returns the probability of observing a difference at least this
    large if the true means were equal; small values mean *a is
    significantly below b*. Degenerate inputs (fewer than two
    observations on either side, or zero variance everywhere) fall back
    to a deterministic comparison: p = 1.0 when the means are equal or
    ``a`` is higher, 0.0 when strictly lower.

    Implemented directly on the Welch statistic and the Student-t CDF
    rather than ``scipy.stats.ttest_ind`` — the estimator calls this
    for every concurrency bucket on every adaption tick. The CDF is
    :func:`_student_t_cdf`, stdlib-only and within 1e-12 absolute of
    ``scipy.special.stdtr`` over df in [1, 5000], t in [-40, 40].
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    na, nb = a.size, b.size
    ma, mb = float(a.mean()), float(b.mean())
    if na < 2 or nb < 2:
        return 1.0 if ma >= mb else 0.0
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    # Near-constant samples would hit catastrophic cancellation inside
    # the t statistic; decide deterministically instead.
    scale = max(abs(ma), abs(mb), 1e-30)
    if va < (1e-9 * scale) ** 2 and vb < (1e-9 * scale) ** 2:
        return 1.0 if ma >= mb else 0.0
    sea = va / na
    seb = vb / nb
    se2 = sea + seb
    t = (ma - mb) / math.sqrt(se2)
    # Welch–Satterthwaite effective degrees of freedom.
    df = se2 * se2 / (sea * sea / (na - 1) + seb * seb / (nb - 1))
    p = _student_t_cdf(df, t)
    if math.isnan(p):  # pragma: no cover - defensive
        return 1.0
    return p

