"""Mergeable Monte Carlo accumulators."""
import math

import numpy as np
import pytest

from trisre.estimates import RunningMoments, merge_chunks


def test_running_moments_variance_stable_at_large_mean():
    # a mean far above the spread: s2/n - mean^2 cancels to an SE of 0
    values = 1e9 + (np.arange(1000) % 2)
    est = RunningMoments(values).estimate()
    expected = np.std(values) / math.sqrt(values.size)
    assert expected == pytest.approx(0.01581, abs=1e-5)
    assert est.se == pytest.approx(expected, rel=1e-9)
    assert est.value == pytest.approx(1e9 + 0.5, rel=1e-15)


def test_running_moments_merge_matches_one_pass():
    values = 1e9 + (np.arange(1000) % 2)
    one = RunningMoments(values).estimate()
    halves = RunningMoments(values[:500])
    halves.merge(RunningMoments(values[500:]))
    two = halves.estimate()
    assert (two.value, two.n_samples) == (one.value, one.n_samples)
    assert two.se == pytest.approx(one.se, rel=1e-12)
    # uneven chunks of a skewed sample, merged in order
    x = np.random.default_rng(3).lognormal(0.0, 1.5, size=10_001)
    parts = [(RunningMoments(c), RunningMoments(2 * c))
             for c in np.array_split(x, 7)]
    acc, acc2 = merge_chunks(parts)
    assert acc.n == x.size
    assert acc.mean == pytest.approx(x.mean(), rel=1e-12)
    assert acc.estimate().se == pytest.approx(
        x.std() / math.sqrt(x.size), rel=1e-12)
    assert acc2.mean == pytest.approx(2 * x.mean(), rel=1e-12)


def test_running_moments_effective_sample_size():
    assert RunningMoments(np.full(50, 3.0)).ess() == pytest.approx(50.0)
    w = np.array([1.0, 0.0, 0.0, 0.0])
    assert RunningMoments(w).ess() == pytest.approx(1.0)
    assert RunningMoments(np.zeros(4)).ess() == 0.0
