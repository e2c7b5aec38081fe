"""Parameter sweeps (Figures 1 and 2) and their plain-text rendering.

A sweep is a one-axis campaign: every strategy at every value of one
platform parameter, plus the theoretical lower bound.  The tables print one
row per value and one column per strategy; values are the mean waste
ratios, and the full candlestick statistics stay on the :class:`SweepResult`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import cast

from repro.exec.runner import ParallelRunner
from repro.experiments.theory import theoretical_waste
from repro.scenarios.campaign import Axis, Campaign
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import Scenario
from repro.stats.summary import DistributionSummary

__all__ = ["SweepResult", "render_sweep", "render_sweep_detailed", "run_sweep", "sweep_campaign"]


@dataclass
class SweepResult:
    """Result of a one-dimensional parameter sweep.

    Attributes
    ----------
    parameter_name:
        Name of the swept platform parameter (for reporting).
    parameter_values:
        The sweep axis, in evaluation order.
    strategies:
        Strategies evaluated for each axis value.
    waste:
        ``waste[strategy][i]`` is the waste-ratio summary of ``strategy`` at
        ``parameter_values[i]``.
    theory:
        ``theory[i]`` is the theoretical lower bound at ``parameter_values[i]``.
    """

    parameter_name: str
    parameter_values: list[float]
    strategies: list[str]
    waste: dict[str, list[DistributionSummary]] = field(default_factory=dict)
    theory: list[float] = field(default_factory=list)

    def series(self, strategy: str) -> list[float]:
        """Mean waste ratio of ``strategy`` along the sweep axis."""
        return [summary.mean for summary in self.waste[strategy]]

    def best_strategy_at(self, index: int) -> str:
        """Strategy with the lowest mean waste at ``parameter_values[index]``."""
        return min(self.strategies, key=lambda s: self.waste[s][index].mean)


def sweep_campaign(base: Scenario, key: str, values: Sequence[float]) -> Campaign:
    """``base`` swept over ``values`` of one override ``key``, on an axis named ``key``.

    Points are labelled ``repr(value)``, so only exact duplicates collide
    (and are refused by :class:`~repro.scenarios.campaign.Axis`).
    """
    values = [float(value) for value in values]
    axis = Axis.from_values(key, key, values, labels=[repr(value) for value in values])
    return Campaign(name=base.name, base=base, axes=(axis,))


def run_sweep(
    campaign: Campaign, parameter_name: str, runner: ParallelRunner | None = None
) -> SweepResult:
    """Run a :func:`sweep_campaign` and pivot its outcomes into a :class:`SweepResult`.

    ``runner`` (its backend and result cache) is shared by every cell; the
    default is a fresh serial, uncached runner.
    """
    (axis,) = campaign.axes
    result = run_campaign(campaign, runner)
    return SweepResult(
        parameter_name=parameter_name,
        parameter_values=[cast(float, point.overrides[axis.name]) for point in axis.points],
        strategies=list(result.strategies),
        waste={s: [o.summaries[s] for o in result.outcomes] for s in result.strategies},
        # The bound on the same scale as the simulated waste ratios (wasted
        # fraction of total resources, see LowerBoundResult).
        theory=[
            theoretical_waste(o.scenario.workload, o.scenario.platform).waste_fraction
            for o in result.outcomes
        ],
    )


def render_sweep(result: SweepResult, *, title: str, value_format: str = "{:g}") -> str:
    """Compact table of mean waste ratios (plus the theoretical bound)."""
    col = 18
    lines = [title, ""]
    header = result.parameter_name.ljust(30) + "".join(
        name.rjust(col) for name in result.strategies + ["theoretical-model"]
    )
    lines.append(header)
    lines.append("-" * len(header))
    for index, value in enumerate(result.parameter_values):
        row = value_format.format(value).ljust(30)
        for strategy in result.strategies:
            row += f"{result.waste[strategy][index].mean:>{col}.3f}"
        row += f"{result.theory[index]:>{col}.3f}"
        lines.append(row)
    return "\n".join(lines)


def render_sweep_detailed(result: SweepResult, *, title: str) -> str:
    """Long-form rendering including the candlestick statistics of each cell."""
    lines = [title, ""]
    for index, value in enumerate(result.parameter_values):
        lines.append(f"{result.parameter_name} = {value:g}")
        lines.append(f"  theoretical-model : {result.theory[index]:.3f}")
        for strategy in result.strategies:
            summary = result.waste[strategy][index]
            lines.append(f"  {strategy:<18}: {summary.format()}")
        lines.append("")
    return "\n".join(lines)
