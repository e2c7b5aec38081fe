"""Ablation studies (repro.experiments.ablation)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.ablation import (
    fixed_period_ablation,
    interference_model_ablation,
    render_ablation,
)
from repro.units import HOUR


def _rows(result):
    """(row label, waste summary) of each scenario of an ablation campaign."""
    return [(o.scenario.name, o.summaries[o.scenario.strategies[0]]) for o in result.outcomes]


def test_fixed_period_ablation_runs_each_period(tiny_platform, tiny_classes):
    result = fixed_period_ablation(
        tiny_platform,
        tiny_classes,
        strategy="ordered-fixed",
        periods_hours=(0.5, 2.0),
        horizon_days=0.5,
        num_runs=1,
        base_seed=0,
    )
    rows = _rows(result)
    assert len(rows) == 2
    assert "0.5 h" in rows[0][0] and "2 h" in rows[1][0]
    assert [o.scenario.fixed_period_s for o in result.outcomes] == [0.5 * HOUR, 2.0 * HOUR]
    for _, waste in rows:
        assert 0.0 <= waste.mean <= 1.0
    text = render_ablation("fixed period ablation", result)
    assert "fixed period ablation" in text
    assert "ordered-fixed" in text


def test_fixed_period_ablation_validation(tiny_platform, tiny_classes):
    with pytest.raises(ConfigurationError):
        fixed_period_ablation(tiny_platform, tiny_classes, periods_hours=())
    with pytest.raises(ConfigurationError):
        fixed_period_ablation(tiny_platform, tiny_classes, strategy="least-waste")


def test_interference_ablation_is_monotone_in_alpha(tiny_platform, tiny_classes):
    result = interference_model_ablation(
        tiny_platform,
        tiny_classes,
        strategy="oblivious-fixed",
        alphas=(0.0, 1.0),
        horizon_days=0.5,
        num_runs=1,
        base_seed=1,
    )
    (linear, linear_waste), (degrading, degrading_waste) = _rows(result)
    assert "linear" in linear
    assert "alpha=1" in degrading
    # More adversarial interference can only increase (or keep) the waste of
    # an overlapping-I/O strategy.
    assert degrading_waste.mean >= linear_waste.mean - 1e-9


def test_interference_ablation_validation(tiny_platform, tiny_classes):
    with pytest.raises(ConfigurationError):
        interference_model_ablation(tiny_platform, tiny_classes, alphas=())


def test_ablation_cells_under_custom_fixed_period(tiny_platform, tiny_classes):
    # A very long fixed period means fewer checkpoints than a short one, so
    # on a failure-light toy platform the checkpoint overhead shrinks.
    result = fixed_period_ablation(
        tiny_platform,
        tiny_classes,
        strategy="ordered-fixed",
        periods_hours=(0.25, 4.0),
        horizon_days=0.5,
        num_runs=1,
        base_seed=2,
    )
    (_, frequent), (_, rare) = _rows(result)
    assert rare.mean <= frequent.mean + 0.02


@pytest.mark.parametrize(
    "strategy", ["ordered[policy=fixed,period_s=1800]", "oblivious-daly", "least-waste"]
)
def test_fixed_period_ablation_refuses_strategies_whose_period_it_cannot_vary(
    tiny_platform, tiny_classes, strategy
):
    # A spec with its own period_s would ignore the ablated period: every
    # row would show the same waste under a different label.
    with pytest.raises(ConfigurationError, match="policy=fixed strategy without a period_s"):
        fixed_period_ablation(tiny_platform, tiny_classes, strategy=strategy)
