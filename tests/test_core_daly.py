"""Young/Daly periods and MTBF scaling (repro.core.daly)."""

from __future__ import annotations

import math

import pytest

from repro.core import daly
from repro.errors import AnalysisError
from repro.units import HOUR, YEAR


def test_job_mtbf_scales_inversely_with_processors():
    assert daly.job_mtbf(100.0, 1) == pytest.approx(100.0)
    assert daly.job_mtbf(100.0, 4) == pytest.approx(25.0)
    assert daly.job_mtbf(100.0, 100) == pytest.approx(1.0)


def test_system_mtbf_matches_paper_cielo_example():
    # The paper quotes a 2-year node MTBF as roughly a 1-hour system MTBF
    # (they assume ~17.5k processors); with our 8 944-node Cielo model the
    # system MTBF is close to 2 hours.
    system = daly.system_mtbf(2.0 * YEAR, 8944)
    assert 1.5 * HOUR < system < 2.5 * HOUR


def test_young_period_formula():
    assert daly.young_period(100.0, 50_000.0) == pytest.approx(math.sqrt(2 * 50_000.0 * 100.0))


def test_daly_period_is_alias_of_young_period():
    assert daly.daly_period(123.0, 45_678.0) == daly.young_period(123.0, 45_678.0)


def test_young_period_grows_with_checkpoint_cost_and_mtbf():
    base = daly.young_period(100.0, 10_000.0)
    assert daly.young_period(400.0, 10_000.0) == pytest.approx(2.0 * base)
    assert daly.young_period(100.0, 40_000.0) == pytest.approx(2.0 * base)


def test_high_order_period_close_to_first_order_when_c_small():
    mu = 1_000_000.0
    c = 10.0
    first = daly.young_period(c, mu)
    refined = daly.daly_period_high_order(c, mu)
    assert refined == pytest.approx(first, rel=0.01)


def test_high_order_period_degrades_to_mtbf_when_c_huge():
    assert daly.daly_period_high_order(10_000.0, 100.0) == pytest.approx(100.0)


def test_checkpoint_time_is_volume_over_bandwidth():
    assert daly.checkpoint_time(10e9, 1e9) == pytest.approx(10.0)


@pytest.mark.parametrize(
    ("func", "args"),
    [
        (daly.job_mtbf, (0.0, 4)),
        (daly.job_mtbf, (100.0, 0)),
        (daly.young_period, (0.0, 100.0)),
        (daly.young_period, (100.0, 0.0)),
        (daly.young_period, (-1.0, 100.0)),
        (daly.checkpoint_time, (0.0, 1e9)),
        (daly.checkpoint_time, (1e9, 0.0)),
        (daly.daly_period_high_order, (0.0, 10.0)),
    ],
)
def test_invalid_inputs_raise_analysis_error(func, args):
    with pytest.raises(AnalysisError):
        func(*args)


def test_non_finite_inputs_rejected():
    with pytest.raises(AnalysisError):
        daly.young_period(float("nan"), 100.0)
    with pytest.raises(AnalysisError):
        daly.young_period(100.0, float("inf"))
    with pytest.raises(AnalysisError):  # too large for a float
        daly.young_period(10**400, 100.0)
