"""Rendering of campaign results.

``render_campaign`` prints the cross-scenario comparison table (scenario
rows x strategy columns of mean waste ratios, the per-scenario winner
starred); ``campaign_to_csv`` exports every cell with its full candlestick
statistics.  Both renderings are pure functions of the
:class:`~repro.scenarios.runner.CampaignResult`, so serial and process
campaign runs produce byte-identical text.
"""

from __future__ import annotations

import csv
import io

from repro.iosched.registry import resolved_strategy_spec
from repro.scenarios.runner import CampaignResult

__all__ = ["campaign_to_csv", "render_campaign", "render_campaign_details"]

#: Width of the scenario-name column (clipped, never truncating data).
_NAME_WIDTH = 28


def render_campaign(result: CampaignResult, *, precision: int = 3) -> str:
    """Plain-text comparison table of mean waste ratios.

    One row per scenario, one column per strategy; the lowest-mean strategy
    of each row is marked with ``*``.
    """
    strategies = list(result.strategies)
    name_width = max(
        [_NAME_WIDTH] + [len(o.scenario.name) for o in result.outcomes]
    )
    col_width = max([10] + [len(s) + 1 for s in strategies])
    header = f"{'scenario':<{name_width}}"
    for strategy in strategies:
        header += f"  {strategy:>{col_width}}"
    lines = [
        f"Campaign {result.campaign} — mean waste ratio per scenario "
        f"(* = best strategy)",
        header,
        "-" * len(header),
    ]
    for outcome in result.outcomes:
        best = outcome.best_strategy()
        row = f"{outcome.scenario.name:<{name_width}}"
        for strategy in strategies:
            if strategy in outcome.summaries:
                marker = "*" if strategy == best else " "
                cell = f"{outcome.summaries[strategy].mean:.{precision}f}{marker}"
            else:
                cell = "-"
            row += f"  {cell:>{col_width}}"
        lines.append(row)
    return "\n".join(lines)


def render_campaign_details(result: CampaignResult) -> str:
    """Per-scenario description plus candlestick statistics of every cell."""
    lines: list[str] = []
    for outcome in result.outcomes:
        lines.append(outcome.scenario.describe())
        for strategy in result.strategies:
            if strategy not in outcome.summaries:
                continue
            summary = outcome.summaries[strategy]
            marker = "*" if strategy == outcome.best_strategy() else " "
            lines.append(f"  {marker} {strategy:<16} {summary.format()}")
    return "\n".join(lines)


def campaign_to_csv(result: CampaignResult) -> str:
    """CSV export: one row per (scenario, strategy) cell with full statistics.

    Scenario names embed commas (``io=weak,mtbf=short``), so fields are
    quoted by the :mod:`csv` writer; floats use ``repr`` (shortest-exact),
    making the export a faithful round-trip of the summaries.  The ``spec``
    column spells out the cell's fully resolved strategy spec (policy and
    effective fixed period included), so two cells sharing a strategy name
    but running different parameters — e.g. ``ordered-fixed`` under two
    scenario ``fixed_period_s`` values — stay distinguishable in exports.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    stat_keys = ["n", "mean", "std", "min", "d1", "q1", "median", "q3", "d9", "max"]
    writer.writerow(["campaign", "scenario", "strategy", "spec", "best", *stat_keys])
    for outcome in result.outcomes:
        best = outcome.best_strategy()
        for strategy in result.strategies:
            if strategy not in outcome.summaries:
                continue
            stats = outcome.summaries[strategy].as_dict()
            writer.writerow(
                [
                    result.campaign,
                    outcome.scenario.name,
                    strategy,
                    resolved_strategy_spec(
                        strategy, fixed_period_s=outcome.scenario.fixed_period_s
                    ),
                    "1" if strategy == best else "0",
                    *[repr(stats[key]) for key in stat_keys],
                ]
            )
    return buffer.getvalue()
