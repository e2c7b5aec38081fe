"""Figure 3 — minimum bandwidth for 80 % efficiency on the prospective system.

For the future 50 000-node / 7 PB platform of §6.2, the paper asks: how much
aggregate file-system bandwidth does each strategy need to keep the platform
at 80 % efficiency (a waste ratio of at most 25 %), as a function of the
node MTBF?  Expected behaviour:

* the blocking Fixed strategies need by far the most bandwidth (up to ~50x
  Least-Waste at low MTBF);
* ``orderednb-daly`` and ``least-waste`` track each other and the
  theoretical model, and their requirement grows only mildly as the MTBF
  degrades;
* all Daly-based strategies need roughly half the bandwidth of
  ``oblivious-fixed`` once failures are rare.

The minimum bandwidth is found by a monotone bisection on a log-scaled
bandwidth axis; each probe is a (small) Monte-Carlo average of simulated
waste ratios, or an analytical evaluation for the theoretical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.experiments.theory import theoretical_waste
from repro.iosched.registry import STRATEGIES
from repro.scenarios.runner import CampaignRunner
from repro.scenarios.spec import Scenario
from repro.workloads.prospective import prospective_platform, prospective_workload

__all__ = ["Figure3Config", "Figure3Result", "run_figure3", "render_figure3"]

#: MTBF axis of the paper's Figure 3 (years).
PAPER_MTBFS_YEARS: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0)

#: Efficiency target of the paper (Exascale Computing Project guidance).
TARGET_EFFICIENCY: float = 0.80


@dataclass(frozen=True)
class Figure3Config:
    """Parameters of the Figure 3 reproduction (laptop-scale defaults).

    ``search_lo_tbs`` / ``search_hi_tbs`` bound the bandwidth bisection and
    ``search_iterations`` controls its resolution (each iteration halves the
    bracket on a log scale).
    """

    node_mtbf_years: tuple[float, ...] = (5.0, 15.0, 25.0)
    strategies: tuple[str, ...] = STRATEGIES
    target_efficiency: float = TARGET_EFFICIENCY
    horizon_days: float = 4.0
    warmup_days: float = 0.5
    cooldown_days: float = 0.5
    num_runs: int = 2
    base_seed: int = 0
    search_lo_tbs: float = 0.2
    search_hi_tbs: float = 60.0
    search_iterations: int = 7

    def __post_init__(self) -> None:
        if not (0.0 < self.target_efficiency < 1.0):
            raise ConfigurationError("target_efficiency must be in (0, 1)")
        if self.search_lo_tbs <= 0.0 or self.search_hi_tbs <= self.search_lo_tbs:
            raise ConfigurationError("invalid bandwidth search bracket")
        if self.search_iterations <= 0:
            raise ConfigurationError("search_iterations must be positive")

    @property
    def target_waste_ratio(self) -> float:
        """Wasted resource fraction corresponding to the efficiency target.

        Both the simulator and (via ``waste_fraction``) the theoretical
        model report waste as a fraction of total resources, so 80 %
        efficiency corresponds to a waste ratio of 0.2.
        """
        return 1.0 - self.target_efficiency


@dataclass
class Figure3Result:
    """Minimum bandwidth (TB/s) per strategy and per MTBF value."""

    node_mtbf_years: list[float]
    strategies: list[str]
    min_bandwidth_tbs: dict[str, list[float]]
    theory_tbs: list[float]
    target_efficiency: float

    def series(self, strategy: str) -> list[float]:
        """Minimum-bandwidth series of one strategy along the MTBF axis."""
        return self.min_bandwidth_tbs[strategy]


def _simulated_waste(
    strategy: str,
    bandwidth_tbs: float,
    mtbf_years: float,
    config: Figure3Config,
    runner: ParallelRunner | None = None,
) -> float:
    # Built in TB/s: the bandwidth_gbs shorthand would compute
    # (tbs * 1000) * GB, which is not float-identical to tbs * TB.
    platform = prospective_platform(bandwidth_tbs=bandwidth_tbs, node_mtbf_years=mtbf_years)
    scenario = Scenario(
        name=f"mtbf={mtbf_years!r},bandwidth_tbs={bandwidth_tbs!r}",
        platform=platform,
        workload=tuple(prospective_workload(platform)),
        strategies=(strategy,),
        num_runs=config.num_runs,
        base_seed=config.base_seed,
        horizon_days=config.horizon_days,
        warmup_days=config.warmup_days,
        cooldown_days=config.cooldown_days,
    )
    outcome = CampaignRunner(runner or ParallelRunner()).run_scenario(scenario)
    (summary,) = outcome.summaries.values()
    return summary.mean


def _theory_waste(bandwidth_tbs: float, mtbf_years: float) -> float:
    platform = prospective_platform(bandwidth_tbs=bandwidth_tbs, node_mtbf_years=mtbf_years)
    workload = prospective_workload(platform)
    # Same scale as the simulated waste ratio (fraction of total resources).
    return theoretical_waste(workload, platform).waste_fraction


def _min_bandwidth(
    waste_at,
    target_waste: float,
    lo_tbs: float,
    hi_tbs: float,
    iterations: int,
) -> float:
    """Log-scale bisection for the smallest bandwidth with waste <= target.

    ``waste_at`` maps a bandwidth in TB/s to a waste ratio; waste is assumed
    to be non-increasing in bandwidth.  Returns ``hi_tbs`` when even the
    upper bound misses the target, and ``lo_tbs`` when the lower bound
    already meets it.
    """
    if waste_at(hi_tbs) > target_waste:
        return hi_tbs
    if waste_at(lo_tbs) <= target_waste:
        return lo_tbs
    log_lo, log_hi = math.log(lo_tbs), math.log(hi_tbs)
    for _ in range(iterations):
        log_mid = 0.5 * (log_lo + log_hi)
        if waste_at(math.exp(log_mid)) <= target_waste:
            log_hi = log_mid
        else:
            log_lo = log_mid
    return math.exp(log_hi)


def run_figure3(
    config: Figure3Config | None = None, runner: ParallelRunner | None = None
) -> Figure3Result:
    """Run the Figure 3 study and return the minimum-bandwidth table.

    ``runner`` optionally parallelises and/or caches the Monte-Carlo probes
    of the bandwidth bisection (see :mod:`repro.exec`).  Within one run
    every probe hits a distinct (bandwidth, strategy, MTBF) cell, so the
    cache pays off on *re-runs* — e.g. extending ``node_mtbf_years`` or
    ``strategies`` replays the unchanged cells from disk.
    """
    config = config or Figure3Config()
    target = config.target_waste_ratio
    result = Figure3Result(
        node_mtbf_years=list(config.node_mtbf_years),
        strategies=list(config.strategies),
        min_bandwidth_tbs={strategy: [] for strategy in config.strategies},
        theory_tbs=[],
        target_efficiency=config.target_efficiency,
    )
    for mtbf in config.node_mtbf_years:
        result.theory_tbs.append(
            _min_bandwidth(
                lambda bw: _theory_waste(bw, mtbf),
                target,
                config.search_lo_tbs,
                config.search_hi_tbs,
                iterations=max(20, config.search_iterations),
            )
        )
        for strategy in config.strategies:
            result.min_bandwidth_tbs[strategy].append(
                _min_bandwidth(
                    lambda bw: _simulated_waste(strategy, bw, mtbf, config, runner),
                    target,
                    config.search_lo_tbs,
                    config.search_hi_tbs,
                    iterations=config.search_iterations,
                )
            )
    return result


def render_figure3(result: Figure3Result) -> str:
    """Plain-text rendering: one row per MTBF, one column per strategy."""
    width = 18
    lines = [
        "Figure 3: minimum aggregated bandwidth (TB/s) to reach "
        f"{100.0 * result.target_efficiency:.0f}% efficiency (prospective system)",
        "",
    ]
    header = "Node MTBF (years)".ljust(width) + "".join(
        name.rjust(width) for name in result.strategies + ["theoretical-model"]
    )
    lines.append(header)
    lines.append("-" * len(header))
    for index, mtbf in enumerate(result.node_mtbf_years):
        row = f"{mtbf:g}".ljust(width)
        for strategy in result.strategies:
            row += f"{result.min_bandwidth_tbs[strategy][index]:>{width}.2f}"
        row += f"{result.theory_tbs[index]:>{width}.2f}"
        lines.append(row)
    return "\n".join(lines)
