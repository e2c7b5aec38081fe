#!/usr/bin/env python3
"""Quickstart: simulate one strategy on the Cielo/APEX workload.

Runs a short (3-day) simulation of the LANL APEX workload on Cielo with a
constrained 60 GB/s file system, once for the uncoordinated ``oblivious-fixed``
baseline and once for the cooperative ``least-waste`` strategy, and prints
the waste breakdown of both together with the theoretical lower bound.

Usage::

    python examples/quickstart.py [--horizon-days 3] [--bandwidth-gbs 60] [--seed 0]

Running experiments in parallel
-------------------------------

Monte-Carlo repetitions are embarrassingly parallel: the i-th derived seed
depends only on the base seed and ``i``, so repetitions can be fanned out to
worker processes (and cached on disk) without changing a single bit of any
result.  Attach a :class:`repro.ParallelRunner` to any experiment entry
point::

    from repro import ParallelRunner
    from repro.experiments.figure1 import Figure1Config, run_figure1

    runner = ParallelRunner(backend="process", workers=4, cache_dir=".coopckpt-cache")
    result = run_figure1(Figure1Config(num_runs=100), runner=runner)

The cache is keyed by ``(config digest, strategy, seed)``, so re-running
with a larger ``num_runs`` only simulates the new seeds.  The same switches
are available on the CLI: ``coopckpt figure1 --workers 4 --cache-dir PATH``.
Pass ``--workers 4`` to this script to see a small parallel Monte-Carlo
sample at the end of the quickstart.
"""

from __future__ import annotations

import argparse
import time

from repro import (
    CampaignRunner,
    ParallelRunner,
    Scenario,
    apex_workload,
    cielo_platform,
    run_simulation,
)
from repro.experiments.theory import theoretical_waste


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon-days", type=float, default=3.0)
    parser.add_argument("--bandwidth-gbs", type=float, default=60.0)
    parser.add_argument("--node-mtbf-years", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="run a small parallel Monte-Carlo sample at the end (1 = skip)",
    )
    args = parser.parse_args()

    platform = cielo_platform(
        bandwidth_gbs=args.bandwidth_gbs, node_mtbf_years=args.node_mtbf_years
    )
    workload = apex_workload(platform)

    print(platform.describe())
    print()
    print("Application classes:")
    for app in workload:
        print(f"  {app.describe()}")
    print()

    bound = theoretical_waste(workload, platform)
    print(
        f"Theoretical lower bound: waste ratio {bound.waste_fraction:.3f} "
        f"(efficiency {bound.efficiency:.3f})"
    )
    print()

    for strategy in ("oblivious-fixed", "least-waste"):
        result = run_simulation(
            platform=platform,
            workload=workload,
            strategy=strategy,
            horizon_days=args.horizon_days,
            seed=args.seed,
        )
        print(f"=== {strategy} ===")
        print(result.summary())
        print()

    print(
        "The cooperative Least-Waste scheduler should be close to the "
        "theoretical bound, while the uncoordinated hourly checkpointing "
        "baseline wastes a large fraction of the platform."
    )

    if args.workers > 1:
        scenario = Scenario(
            name="quickstart",
            platform=platform,
            workload=tuple(workload),
            strategies=("least-waste",),
            horizon_days=args.horizon_days,
            warmup_days=args.horizon_days / 4.0,
            cooldown_days=args.horizon_days / 4.0,
            num_runs=2 * args.workers,
            base_seed=args.seed,
        )
        print()
        print(f"=== parallel Monte-Carlo ({scenario.num_runs} runs, {args.workers} workers) ===")
        start = time.perf_counter()
        with CampaignRunner(ParallelRunner(backend="process", workers=args.workers)) as runner:
            summary = runner.run_scenario(scenario).summaries["least-waste"]
        elapsed = time.perf_counter() - start
        print(f"least-waste waste ratio: {summary.format()}  ({elapsed:.1f}s wall-clock)")

if __name__ == "__main__":
    main()
