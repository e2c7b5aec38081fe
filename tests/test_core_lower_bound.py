"""Constrained lower bound, Theorem 1 (repro.core.lower_bound)."""

from __future__ import annotations

import pytest

from repro.core.daly import young_period
from repro.core.lower_bound import (
    SteadyStateClass,
    constrained_periods,
    io_pressure,
    optimal_periods,
    platform_lower_bound,
)
from repro.errors import AnalysisError


def make_classes(checkpoint_time: float = 200.0) -> list[SteadyStateClass]:
    return [
        SteadyStateClass("big", count=4.0, nodes=1000.0, checkpoint_time=checkpoint_time),
        SteadyStateClass("small", count=10.0, nodes=100.0, checkpoint_time=checkpoint_time / 4),
    ]


def test_steady_state_class_validation():
    with pytest.raises(AnalysisError):
        SteadyStateClass("x", count=0.0, nodes=10.0, checkpoint_time=1.0)
    with pytest.raises(AnalysisError):
        SteadyStateClass("x", count=1.0, nodes=0.0, checkpoint_time=1.0)
    with pytest.raises(AnalysisError):
        SteadyStateClass("x", count=1.0, nodes=10.0, checkpoint_time=0.0)
    with pytest.raises(AnalysisError):
        SteadyStateClass("x", count=1.0, nodes=10.0, checkpoint_time=1.0, recovery_time=-1.0)


def test_recovery_time_defaults_to_checkpoint_time():
    cls = SteadyStateClass("x", count=1.0, nodes=10.0, checkpoint_time=123.0)
    assert cls.effective_recovery_time == 123.0
    cls2 = SteadyStateClass("x", count=1.0, nodes=10.0, checkpoint_time=123.0, recovery_time=50.0)
    assert cls2.effective_recovery_time == 50.0


def test_constrained_periods_reduce_to_daly_at_lambda_zero():
    classes = make_classes()
    total_nodes, mu_ind = 5000.0, 1e8
    periods = constrained_periods(0.0, classes, total_nodes, mu_ind)
    for period, cls in zip(periods, classes):
        expected = young_period(cls.checkpoint_time, mu_ind / cls.nodes)
        assert period == pytest.approx(expected)


def test_periods_increase_with_lambda():
    classes = make_classes()
    p0 = constrained_periods(0.0, classes, 5000.0, 1e8)
    p1 = constrained_periods(1e-3, classes, 5000.0, 1e8)
    p2 = constrained_periods(1e-2, classes, 5000.0, 1e8)
    assert all(p1 > p0)
    assert all(p2 > p1)


def test_io_pressure_definition():
    classes = make_classes()
    periods = [1000.0, 500.0]
    expected = 4.0 * 200.0 / 1000.0 + 10.0 * 50.0 / 500.0
    assert io_pressure(periods, classes) == pytest.approx(expected)


def test_io_pressure_validation():
    classes = make_classes()
    with pytest.raises(AnalysisError):
        io_pressure([1000.0], classes)
    with pytest.raises(AnalysisError):
        io_pressure([1000.0, 0.0], classes)


def test_unconstrained_case_when_bandwidth_ample():
    # Large MTBF and small checkpoints: Daly periods easily satisfy F <= 1.
    classes = make_classes(checkpoint_time=10.0)
    periods, lam = optimal_periods(classes, 5000.0, 1e9)
    assert lam == 0.0
    assert io_pressure(periods, classes) <= 1.0


def test_constrained_case_activates_lambda_and_saturates_constraint():
    # Short MTBF and long commit times: Daly periods violate F <= 1.
    classes = make_classes(checkpoint_time=5000.0)
    mu_ind = 1e6
    daly = constrained_periods(0.0, classes, 5000.0, mu_ind)
    assert io_pressure(daly, classes) > 1.0
    periods, lam = optimal_periods(classes, 5000.0, mu_ind)
    assert lam > 0.0
    assert io_pressure(periods, classes) == pytest.approx(1.0, rel=1e-6)
    # Constrained periods stretch beyond Daly.
    assert all(periods >= daly)


def test_platform_lower_bound_constrained_never_below_unconstrained():
    classes = make_classes(checkpoint_time=5000.0)
    result = platform_lower_bound(classes, 5000.0, 1e6)
    assert result.waste >= result.unconstrained_waste - 1e-12
    assert result.constrained
    assert 0.0 < result.efficiency < 1.0
    assert result.waste_fraction == pytest.approx(result.waste / (1.0 + result.waste))


def test_platform_lower_bound_reports_daly_periods_and_names():
    classes = make_classes(checkpoint_time=10.0)
    result = platform_lower_bound(classes, 5000.0, 1e9)
    assert result.class_names == ("big", "small")
    assert not result.constrained
    assert result.periods == result.daly_periods


def test_lower_bound_decreases_with_bandwidth():
    # Halving the checkpoint time (doubling bandwidth) can only reduce waste.
    slow = platform_lower_bound(make_classes(4000.0), 5000.0, 1e6)
    fast = platform_lower_bound(make_classes(2000.0), 5000.0, 1e6)
    assert fast.waste <= slow.waste + 1e-12


def test_lower_bound_decreases_with_reliability():
    classes = make_classes(2000.0)
    fragile = platform_lower_bound(classes, 5000.0, 1e6)
    reliable = platform_lower_bound(classes, 5000.0, 1e7)
    assert reliable.waste <= fragile.waste + 1e-12


def test_infeasible_configuration_raises():
    # Even arbitrarily long periods cannot satisfy the constraint when each
    # class alone needs more than the full I/O capacity per unit time...
    # that situation requires absurd parameters; instead check the bracket
    # guard by demanding an impossible lambda ceiling.
    classes = make_classes(checkpoint_time=5000.0)
    with pytest.raises(AnalysisError):
        optimal_periods(classes, 5000.0, 1e6, max_lambda=1e-12)


def test_empty_class_list_rejected():
    with pytest.raises(AnalysisError):
        platform_lower_bound([], 100.0, 1e6)
