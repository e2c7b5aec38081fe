"""Monte-Carlo statistics (repro.stats)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.stats.montecarlo import derive_seeds
from repro.stats.summary import DistributionSummary, summarize


# ----------------------------------------------------------------- summaries
def test_summarize_basic_statistics():
    summary = summarize(range(1, 101))
    assert summary.n == 100
    assert summary.mean == pytest.approx(50.5)
    assert summary.minimum == 1.0
    assert summary.maximum == 100.0
    assert summary.median == pytest.approx(50.5)
    assert summary.quartile1 < summary.median < summary.quartile3
    assert summary.decile1 < summary.quartile1
    assert summary.decile9 > summary.quartile3


def test_summarize_constant_sample():
    summary = summarize([3.0] * 10)
    assert summary.mean == 3.0
    assert summary.std == 0.0
    assert summary.decile1 == summary.decile9 == 3.0


def test_summarize_mean_clamped_into_sample_range():
    # Pairwise-summation rounding can push np.mean a few ULPs past the
    # extrema for pathological values; summarize must clamp it back.
    value = 5.83321493915412e-210
    summary = summarize([value] * 3)
    assert summary.minimum <= summary.mean <= summary.maximum
    assert summary.mean == value


def test_summarize_rejects_bad_input():
    with pytest.raises(AnalysisError):
        summarize([])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(AnalysisError):
            summarize([1.0, bad])


def test_summary_as_dict_and_format():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    data = summary.as_dict()
    assert data["n"] == 4.0
    assert data["mean"] == pytest.approx(2.5)
    text = summary.format()
    assert "2.500" in text
    assert "[" in text and "]" in text


def test_percentile_ordering_invariant():
    rng = np.random.default_rng(0)
    summary = summarize(rng.normal(size=500))
    ordered = [
        summary.minimum,
        summary.decile1,
        summary.quartile1,
        summary.median,
        summary.quartile3,
        summary.decile9,
        summary.maximum,
    ]
    assert ordered == sorted(ordered)


# --------------------------------------------------------------- monte carlo
def test_derive_seeds_is_stable_and_prefix_consistent():
    short = derive_seeds(42, 3)
    long = derive_seeds(42, 6)
    assert long[:3] == short
    assert len(set(long)) == 6
    assert derive_seeds(42, 3) == short
    assert derive_seeds(43, 3) != short


def test_derive_seeds_requires_positive_runs():
    with pytest.raises(AnalysisError):
        derive_seeds(0, 0)

