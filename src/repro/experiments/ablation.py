"""Ablation studies for the design choices called out in DESIGN.md.

Two ablations complement the paper's figures:

* :func:`fixed_period_ablation` — how sensitive the *Fixed* strategies are
  to the choice of the fixed checkpoint period (the paper uses one hour;
  §7 cites Arunagiri et al. on deliberately sub-optimal longer periods).
* :func:`interference_model_ablation` — how much of the Oblivious
  strategies' loss comes from the linear-interference assumption itself,
  by re-running the same scenario under the adversarial models of
  :mod:`repro.platform.interference` (paper footnote 2).

Each is a one-axis campaign whose scenario names are the table's rows.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.apps.app_class import ApplicationClass
from repro.errors import ConfigurationError, short_repr
from repro.exec.runner import ParallelRunner
from repro.iosched.registry import parse_strategy
from repro.platform.interference import (
    DegradingInterference,
    InterferenceModel,
    LinearInterference,
)
from repro.platform.spec import PlatformSpec
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.runner import CampaignResult, run_campaign
from repro.scenarios.spec import Scenario
from repro.units import HOUR

__all__ = [
    "fixed_period_ablation",
    "interference_model_ablation",
    "render_ablation",
]


def _run_ablation(
    name: str, points: Sequence[AxisPoint], platform: PlatformSpec,
    workload: Sequence[ApplicationClass], strategy: str, horizon_days: float,
    num_runs: int, base_seed: int, runner: ParallelRunner | None,
) -> CampaignResult:
    """Run ``strategy`` at every point, as a one-axis campaign (axis ``name``)."""
    edge_days = min(1.0, horizon_days / 4.0)
    base = Scenario(
        name=name,
        platform=platform,
        workload=tuple(workload),
        strategies=(strategy,),
        num_runs=num_runs,
        base_seed=base_seed,
        horizon_days=horizon_days,
        warmup_days=edge_days,
        cooldown_days=edge_days,
    )
    campaign = Campaign(name=name, base=base, axes=(Axis(name=name, points=tuple(points)),))
    return run_campaign(campaign, runner)


def fixed_period_ablation(
    platform: PlatformSpec,
    workload: Sequence[ApplicationClass],
    *,
    strategy: str = "oblivious-fixed",
    periods_hours: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    horizon_days: float = 4.0,
    num_runs: int = 2,
    base_seed: int = 0,
    runner: ParallelRunner | None = None,
) -> CampaignResult:
    """Waste of a Fixed-period strategy as the fixed period varies.

    The paper's Fixed variants always use one hour; this ablation shows how
    much of their loss is attributable to that specific choice rather than
    to the fixed-period policy itself.  ``strategy`` must use
    ``policy=fixed`` without a ``period_s`` of its own, which would override
    the period being varied.  One scenario per period, named after its row.
    """
    if not periods_hours:
        raise ConfigurationError("periods_hours must not be empty")
    spec = parse_strategy(strategy)
    if spec.get("policy") != "fixed" or spec.get("period_s") is not None:
        raise ConfigurationError(
            "fixed_period_ablation varies the period of a policy=fixed strategy "
            f"without a period_s of its own; got {short_repr(strategy)}"
        )
    points = [
        AxisPoint(repr(h), {"fixed_period_s": h * HOUR, "name": f"{strategy}, P = {h:g} h"})
        for h in periods_hours
    ]
    return _run_ablation(
        "periods-hours", points, platform, workload, strategy, horizon_days, num_runs,
        base_seed, runner,
    )


def interference_model_ablation(
    platform: PlatformSpec,
    workload: Sequence[ApplicationClass],
    *,
    strategy: str = "oblivious-daly",
    alphas: Sequence[float] = (0.0, 0.25, 1.0),
    horizon_days: float = 4.0,
    num_runs: int = 2,
    base_seed: int = 0,
    runner: ParallelRunner | None = None,
) -> CampaignResult:
    """Waste of one strategy under increasingly adversarial interference.

    ``alpha = 0`` is the paper's linear model; larger values destroy
    aggregate throughput when transfers overlap, which hurts the Oblivious
    strategies (whose transfers always overlap) far more than the token-based
    ones (which never overlap).  One scenario per alpha, named after its row.
    """
    if not alphas:
        raise ConfigurationError("alphas must not be empty")
    points = []
    for alpha in alphas:
        # Alpha 0 passes LinearInterference(), not None: the config digest
        # tells the two apart, so this keeps the cache keys it always had.
        model: InterferenceModel
        if alpha == 0.0:
            model = LinearInterference()
            label = f"{strategy}, linear interference"
        else:
            model = DegradingInterference(alpha=alpha)
            label = f"{strategy}, degrading interference (alpha={alpha:g})"
        points.append(AxisPoint(repr(alpha), {"interference": model, "name": label}))
    return _run_ablation(
        "alphas", points, platform, workload, strategy, horizon_days, num_runs, base_seed, runner
    )


def render_ablation(title: str, result: CampaignResult) -> str:
    """Plain-text table of an ablation study: one row per scenario."""
    rows = [
        (outcome.scenario.name, summary)
        for outcome in result.outcomes
        for summary in outcome.summaries.values()
    ]
    width = max((len(label) for label, _ in rows), default=10) + 2
    lines = [title, ""]
    lines.append("configuration".ljust(width) + "mean waste   [d1 q1 | q3 d9]")
    lines.append("-" * (width + 32))
    for label, summary in rows:
        lines.append(label.ljust(width) + summary.format())
    return "\n".join(lines)
