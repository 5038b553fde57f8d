"""Tests for the Welch-based plateau detection."""

import math

import numpy as np
import pytest

from repro.sct.intervention import _student_t_cdf, welch_t_pvalue


def test_clearly_lower_sample_is_significant():
    rng = np.random.default_rng(0)
    low = rng.normal(50, 5, 40)
    high = rng.normal(100, 5, 40)
    assert welch_t_pvalue(low, high) < 1e-6


def test_identical_distributions_not_significant():
    rng = np.random.default_rng(1)
    a = rng.normal(100, 10, 40)
    b = rng.normal(100, 10, 40)
    assert welch_t_pvalue(a, b) > 0.01


def test_higher_sample_has_large_pvalue():
    rng = np.random.default_rng(2)
    a = rng.normal(120, 5, 30)
    b = rng.normal(100, 5, 30)
    assert welch_t_pvalue(a, b) > 0.99


def test_tiny_samples_decided_by_mean():
    assert welch_t_pvalue([5.0], [10.0, 11.0]) == 0.0
    assert welch_t_pvalue([50.0], [10.0, 11.0]) == 1.0


def test_constant_samples_decided_by_mean():
    assert welch_t_pvalue([5.0, 5.0, 5.0], [9.0, 9.0, 9.0]) == 0.0
    assert welch_t_pvalue([9.0, 9.0], [9.0, 9.0]) == 1.0


def test_matches_scipy_reference():
    from scipy import stats

    rng = np.random.default_rng(3)
    a = rng.normal(10, 2, 25)
    b = rng.normal(11, 3, 18)
    ours = welch_t_pvalue(a, b)
    ref = stats.ttest_ind(a, b, equal_var=False, alternative="less").pvalue
    assert ours == pytest.approx(float(ref), abs=1e-12)


def test_student_t_cdf_matches_scipy_stdtr():
    """The stdlib CDF agrees with scipy to 1e-12 absolute everywhere,
    to 1e-9 relative wherever p >= 1e-250, and takes the same
    ``p >= 0.05`` plateau decision at every point."""
    from scipy import special

    rng = np.random.default_rng(15)
    dfs = np.exp(rng.uniform(0.0, np.log(5000.0), 4000))
    ts = np.concatenate([rng.uniform(-40.0, 40.0, 2000), rng.normal(0.0, 2.0, 2000)])
    for df, t in zip(dfs.tolist(), ts.tolist()):
        ours = _student_t_cdf(df, t)
        ref = float(special.stdtr(df, t))
        assert abs(ours - ref) <= 1e-12, (df, t, ours, ref)
        if ref >= 1e-250:
            assert abs(ours - ref) <= 1e-9 * ref, (df, t, ours, ref)
        assert (ours >= 0.05) == (ref >= 0.05), (df, t, ours, ref)


@pytest.mark.parametrize(
    "df,t",
    [
        (1530.0, -35.8),  # deep tail: p ~ 1e-204, not 0
        (1e4, 1.5),  # large df: lgamma(h) - lgamma(h + 1/2) cancels
        (1e4, -1.5),
        (1e6, -1.732),  # large df, moderate t: the plain fraction cancels
        (1e8, -1.74),
        (2.0, -1.355),  # a fraction with constant terms
        (1.0, -1e10),
    ],
)
def test_student_t_cdf_hard_points(df, t):
    from scipy import special

    ref = float(special.stdtr(df, t))
    assert _student_t_cdf(df, t) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_student_t_cdf_edges():
    assert _student_t_cdf(5.0, 0.0) == 0.5
    assert _student_t_cdf(5.0, float("-inf")) == 0.0
    assert _student_t_cdf(5.0, float("inf")) == 1.0
    assert _student_t_cdf(1.0, -1e200) == 0.0
    assert math.isnan(_student_t_cdf(0.0, 1.0))
    assert math.isnan(_student_t_cdf(float("nan"), 1.0))
    assert math.isnan(_student_t_cdf(3.0, float("nan")))
    # df = inf is the normal limit.
    assert _student_t_cdf(float("inf"), -1.5) == pytest.approx(
        0.5 * math.erfc(1.5 / math.sqrt(2.0)), rel=1e-15
    )
