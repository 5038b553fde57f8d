"""Tests for the Welch-based plateau detection."""

import numpy as np
import pytest

from repro.sct.intervention import welch_t_pvalue


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

