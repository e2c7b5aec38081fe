"""Parameter sweeps (Figures 1 and 2) and their plain-text rendering.

A sweep is a one-axis campaign: every strategy at every value of one
platform parameter.  Its :class:`~repro.scenarios.runner.CampaignResult`
holds one outcome per axis value, in axis order, with every seed's waste
ratio.  The readers take it with the parameter's label and the axis values
(:func:`sweep_values`), and add each point's lower bound (:func:`point_bound`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import cast

from repro.experiments.theory import theoretical_waste
from repro.scenarios.campaign import Axis, Campaign
from repro.scenarios.runner import CampaignResult, ScenarioOutcome
from repro.scenarios.spec import Scenario

__all__ = [
    "point_bound", "render_sweep", "render_sweep_detailed", "sweep_campaign", "sweep_values",
]


def sweep_campaign(base: Scenario, key: str, values: Sequence[float]) -> Campaign:
    """``base`` swept over ``values`` of one override ``key``, on an axis named ``key``.

    Points are labelled ``repr(value)``, so only exact duplicates collide
    (and are refused by :class:`~repro.scenarios.campaign.Axis`).
    """
    values = [float(value) for value in values]
    axis = Axis.from_values(key, key, values, labels=[repr(value) for value in values])
    return Campaign(name=base.name, base=base, axes=(axis,))


def sweep_values(campaign: Campaign) -> list[float]:
    """The axis values of a :func:`sweep_campaign`, in axis order."""
    (axis,) = campaign.axes
    return [cast(float, point.overrides[axis.name]) for point in axis.points]


def point_bound(outcome: ScenarioOutcome) -> float:
    """The theoretical lower bound at one sweep point.

    On the same scale as the simulated waste ratios (wasted fraction of
    total resources, see :class:`~repro.core.lower_bound.LowerBoundResult`).
    """
    scenario = outcome.scenario
    return theoretical_waste(scenario.workload, scenario.platform).waste_fraction


def render_sweep(
    result: CampaignResult, parameter: str, values: Sequence[float], *, title: str
) -> str:
    """Compact table of mean waste ratios (plus the theoretical bound)."""
    col = 18
    lines = [title, ""]
    header = parameter.ljust(30) + "".join(
        name.rjust(col) for name in (*result.strategies, "theoretical-model")
    )
    lines.append(header)
    lines.append("-" * len(header))
    for value, outcome in zip(values, result.outcomes, strict=True):
        row = f"{value:g}".ljust(30)
        for strategy in result.strategies:
            row += f"{outcome.summaries[strategy].mean:>{col}.3f}"
        row += f"{point_bound(outcome):>{col}.3f}"
        lines.append(row)
    return "\n".join(lines)


def render_sweep_detailed(
    result: CampaignResult, parameter: str, values: Sequence[float], *, title: str
) -> str:
    """Long-form rendering including the candlestick statistics of each cell."""
    lines = [title, ""]
    for value, outcome in zip(values, result.outcomes, strict=True):
        lines.append(f"{parameter} = {value:g}")
        lines.append(f"  theoretical-model : {point_bound(outcome):.3f}")
        for strategy in result.strategies:
            lines.append(f"  {strategy:<18}: {outcome.summaries[strategy].format()}")
        lines.append("")
    return "\n".join(lines)
