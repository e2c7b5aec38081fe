#!/usr/bin/env python3
"""Scenario-campaign walkthrough: a custom platform/failure/workload matrix.

Builds a campaign from scratch — a miniature Cielo swept over file-system
bandwidth crossed with the failure model (exponential vs. bursty Weibull) —
runs it through the shared execution subsystem, and prints the
cross-scenario comparison table plus per-cell candlestick statistics.

Pass ``--cache-dir`` to make re-runs instantaneous (only unseen cells are
simulated) and ``--workers`` to fan repetitions out over processes; both
leave the table byte-identical.

Usage::

    python examples/campaign_matrix.py --num-runs 3 --workers 2
"""

from __future__ import annotations

import argparse

from repro.exec.runner import ParallelRunner
from repro.platform.failures import FailureModel
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.presets import mini_apex_workload, mini_cielo_platform
from repro.scenarios.report import render_campaign, render_campaign_details
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import Scenario
from repro.store import FilesystemStore


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-runs", type=int, default=3, help="repetitions per cell")
    parser.add_argument("--horizon-days", type=float, default=0.5)
    parser.add_argument("--workers", type=int, default=1, help="worker processes (1 = serial)")
    parser.add_argument("--cache-dir", default=None, help="on-disk result cache")
    args = parser.parse_args()

    platform = mini_cielo_platform()
    base = Scenario(
        name="mini-cielo",
        platform=platform,
        workload=tuple(mini_apex_workload(platform)),
        strategies=("oblivious-daly", "ordered-daly", "orderednb-daly", "least-waste"),
        num_runs=args.num_runs,
        horizon_days=args.horizon_days,
        warmup_days=args.horizon_days / 8.0,
        cooldown_days=args.horizon_days / 8.0,
    )
    campaign = Campaign(
        name="example-matrix",
        base=base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [1.0, 2.0, 4.0]),
            Axis(
                name="failures",
                points=(
                    AxisPoint("exp", {"failure_model": FailureModel()}),
                    AxisPoint(
                        "weibull0.7",
                        {"failure_model": FailureModel(kind="weibull", shape=0.7)},
                    ),
                ),
            ),
        ),
    )
    print(campaign.describe())
    print()

    with ParallelRunner(
        backend="process" if args.workers > 1 else "serial",
        workers=args.workers,
        cache=FilesystemStore(args.cache_dir) if args.cache_dir else None,
    ) as runner:
        result = run_campaign(campaign, runner)
    print(render_campaign(result))
    print()
    print(render_campaign_details(result))
    stats = runner.stats
    print()
    print(f"simulations: {stats.tasks_run}, cache hits: {stats.cache_hits}")


if __name__ == "__main__":
    main()
