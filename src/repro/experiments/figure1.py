"""Figure 1 — waste ratio vs. aggregate file-system bandwidth on Cielo.

The paper varies the Cielo file-system bandwidth from 40 to 160 GB/s with a
2-year node MTBF and plots, for each of the seven strategies, the waste
ratio over a 60-day segment (candlesticks over at least 1 000 Monte-Carlo
repetitions) together with the theoretical lower bound.

The observations this experiment should reproduce (at reduced scale):

* ``oblivious-fixed`` and ``ordered-fixed`` stay above ~40 % waste even at
  the full 160 GB/s;
* ``orderednb-*`` and ``least-waste`` drop quickly below ~20 % and approach
  the theoretical model;
* ``oblivious-daly`` and ``ordered-daly`` start as badly as the Fixed
  variants and only slowly improve with bandwidth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.exec.runner import ParallelRunner
from repro.experiments.report import render_sweep, sweep_campaign
from repro.iosched.registry import STRATEGIES
from repro.scenarios.campaign import Campaign
from repro.scenarios.runner import CampaignResult, run_campaign
from repro.scenarios.spec import Scenario
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

__all__ = ["PARAMETER", "Figure1Config", "run_figure1", "render_figure1"]

#: Bandwidth axis of the paper's Figure 1 (GB/s).
PAPER_BANDWIDTHS_GBS: tuple[float, ...] = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0)

#: Label of the swept parameter in the table, the exports and the chart.
PARAMETER = "System Aggregated Bandwidth (GB/s)"


@dataclass(frozen=True)
class Figure1Config:
    """Parameters of the Figure 1 reproduction.

    The defaults are laptop-scale; pass ``bandwidths_gbs=PAPER_BANDWIDTHS_GBS``,
    ``horizon_days=60`` and ``num_runs=1000`` to match the paper exactly.
    """

    bandwidths_gbs: tuple[float, ...] = (40.0, 80.0, 120.0, 160.0)
    node_mtbf_years: float = 2.0
    strategies: tuple[str, ...] = STRATEGIES
    horizon_days: float = 6.0
    warmup_days: float = 1.0
    cooldown_days: float = 1.0
    num_runs: int = 3
    base_seed: int = 0

    def campaign(self) -> Campaign:
        """The sweep as a one-axis campaign over ``bandwidth_gbs``."""
        platform = cielo_platform(node_mtbf_years=self.node_mtbf_years)
        base = Scenario(
            name="figure1",
            platform=platform,
            workload=tuple(apex_workload(platform)),
            strategies=self.strategies,
            num_runs=self.num_runs,
            base_seed=self.base_seed,
            horizon_days=self.horizon_days,
            warmup_days=self.warmup_days,
            cooldown_days=self.cooldown_days,
        )
        return sweep_campaign(base, "bandwidth_gbs", self.bandwidths_gbs)


def run_figure1(
    config: Figure1Config | None = None, runner: ParallelRunner | None = None
) -> CampaignResult:
    """Run ``config.campaign()``: one outcome per bandwidth, every seed's value kept.

    ``runner`` optionally parallelises and/or caches the Monte-Carlo
    repetitions (see :mod:`repro.exec`); results are backend-independent.
    """
    config = config or Figure1Config()
    return run_campaign(config.campaign(), runner)


def render_figure1(result: CampaignResult, values: Sequence[float]) -> str:
    """Plain-text rendering of the Figure 1 data (one row per bandwidth)."""
    title = "Figure 1: waste ratio vs. system bandwidth (Cielo, LANL APEX workload)"
    return render_sweep(result, PARAMETER, values, title=title)
