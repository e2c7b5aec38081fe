#!/usr/bin/env python3
"""Figure 1 scenario: waste ratio vs. file-system bandwidth on Cielo.

Sweeps the aggregate parallel-file-system bandwidth of Cielo (the paper uses
40-160 GB/s) and compares the seven I/O & checkpoint scheduling strategies
against the theoretical lower bound, on the LANL APEX workload.

This is the laptop-scale version of the paper's Figure 1: shorter simulated
segments and a handful of Monte-Carlo repetitions instead of 60 days x 1000
runs.  Increase ``--num-runs`` / ``--horizon-days`` to tighten the
statistics.

Usage::

    python examples/cielo_bandwidth_sweep.py --bandwidths 40 80 120 160 --num-runs 3
"""

from __future__ import annotations

import argparse

from repro.experiments.figure1 import PARAMETER, Figure1Config, render_figure1, run_figure1
from repro.experiments.report import render_sweep_detailed, sweep_values


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bandwidths", type=float, nargs="+", default=[40.0, 80.0, 120.0, 160.0],
        help="bandwidth points in GB/s",
    )
    parser.add_argument("--node-mtbf-years", type=float, default=2.0)
    parser.add_argument("--horizon-days", type=float, default=5.0)
    parser.add_argument("--num-runs", type=int, default=3)
    parser.add_argument("--detailed", action="store_true", help="print candlestick statistics")
    args = parser.parse_args()

    config = Figure1Config(
        bandwidths_gbs=tuple(args.bandwidths),
        node_mtbf_years=args.node_mtbf_years,
        horizon_days=args.horizon_days,
        num_runs=args.num_runs,
    )
    result = run_figure1(config)
    values = sweep_values(config.campaign())
    print(render_figure1(result, values))
    if args.detailed:
        print()
        title = "Per-cell candlestick statistics"
        print(render_sweep_detailed(result, PARAMETER, values, title=title))

    print()
    best_low = result.outcomes[0].best_strategy()
    best_high = result.outcomes[-1].best_strategy()
    print(
        f"Best strategy at {values[0]:g} GB/s: {best_low}; "
        f"at {values[-1]:g} GB/s: {best_high}."
    )


if __name__ == "__main__":
    main()
