"""Figure 2 — waste ratio vs. node MTBF on Cielo at 40 GB/s.

The paper fixes the Cielo file-system bandwidth at a constrained 40 GB/s and
varies the individual-node MTBF from 2 years (≈1 h system MTBF) to 50 years
(≈1 day system MTBF).  Expected behaviour:

* ``oblivious-fixed`` / ``ordered-fixed`` stay saturated around 80 % waste
  for every MTBF (the I/O subsystem is the bottleneck);
* ``oblivious-daly`` / ``ordered-daly`` are poor at low MTBF but approach
  the bound as failures become rare;
* ``orderednb-*`` and ``least-waste`` reach the theoretical bound already at
  a 4-year node MTBF.
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

__all__ = ["PARAMETER", "Figure2Config", "run_figure2", "render_figure2"]

#: MTBF axis of the paper's Figure 2 (years, log-scale in the plot).
PAPER_MTBFS_YEARS: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0, 50.0)

#: Label of the swept parameter in the table, the exports and the chart.
PARAMETER = "Node MTBF (years)"


@dataclass(frozen=True)
class Figure2Config:
    """Parameters of the Figure 2 reproduction (laptop-scale defaults)."""

    node_mtbf_years: tuple[float, ...] = (2.0, 5.0, 20.0, 50.0)
    bandwidth_gbs: float = 40.0
    strategies: tuple[str, ...] = STRATEGIES
    horizon_days: float = 6.0
    warmup_days: float = 1.0
    cooldown_days: float = 1.0
    num_runs: int = 3
    base_seed: int = 0

    def campaign(self) -> Campaign:
        """The sweep as a one-axis campaign over ``node_mtbf_years``."""
        platform = cielo_platform(bandwidth_gbs=self.bandwidth_gbs)
        base = Scenario(
            name="figure2",
            platform=platform,
            workload=tuple(apex_workload(platform)),
            strategies=self.strategies,
            num_runs=self.num_runs,
            base_seed=self.base_seed,
            horizon_days=self.horizon_days,
            warmup_days=self.warmup_days,
            cooldown_days=self.cooldown_days,
        )
        return sweep_campaign(base, "node_mtbf_years", self.node_mtbf_years)


def run_figure2(
    config: Figure2Config | None = None, runner: ParallelRunner | None = None
) -> CampaignResult:
    """Run ``config.campaign()``: one outcome per MTBF value, every seed's value kept.

    ``runner`` optionally parallelises and/or caches the Monte-Carlo
    repetitions (see :mod:`repro.exec`); results are backend-independent.
    """
    config = config or Figure2Config()
    return run_campaign(config.campaign(), runner)


def render_figure2(result: CampaignResult, values: Sequence[float]) -> str:
    """Plain-text rendering of the Figure 2 data (one row per MTBF value)."""
    title = (
        "Figure 2: waste ratio vs. node MTBF "
        "(Cielo, 40 GB/s aggregated bandwidth, LANL APEX workload)"
    )
    return render_sweep(result, PARAMETER, values, title=title)
