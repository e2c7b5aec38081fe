#!/usr/bin/env python3
"""Ablation: how much does the interference model itself matter?

The paper assumes a *linear* interference model: overlapping transfers share
the file system's aggregate bandwidth, which stays constant (footnote 2
notes that a more adversarial model can be substituted).  This example
re-runs the same Cielo/APEX scenario under increasingly adversarial models
(each overlapping stream destroys part of the aggregate throughput) for an
uncoordinated strategy and for the cooperative Least-Waste strategy.

The point it illustrates: the token-based strategies never overlap
transfers, so they are immune to the interference model — the more
pessimistic the real file system behaves under concurrency, the bigger the
win from cooperative checkpoint scheduling.

Usage::

    python examples/interference_ablation.py --alphas 0 0.25 1.0 --num-runs 2
"""

from __future__ import annotations

import argparse

from repro.experiments.ablation import interference_model_ablation, render_ablation
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", type=float, nargs="+", default=[0.0, 0.25, 1.0])
    parser.add_argument("--bandwidth-gbs", type=float, default=60.0)
    parser.add_argument("--node-mtbf-years", type=float, default=2.0)
    parser.add_argument("--horizon-days", type=float, default=3.0)
    parser.add_argument("--num-runs", type=int, default=2)
    args = parser.parse_args()

    platform = cielo_platform(
        bandwidth_gbs=args.bandwidth_gbs, node_mtbf_years=args.node_mtbf_years
    )
    workload = apex_workload(platform)

    for strategy in ("oblivious-daly", "least-waste"):
        result = interference_model_ablation(
            platform,
            workload,
            strategy=strategy,
            alphas=tuple(args.alphas),
            horizon_days=args.horizon_days,
            num_runs=args.num_runs,
        )
        print(render_ablation(f"Interference ablation — {strategy}", result))
        print()

    print(
        "Oblivious strategies degrade as the model becomes more adversarial; "
        "the serialized (cooperative) strategies are unaffected because they "
        "never let two transfers overlap."
    )


if __name__ == "__main__":
    main()
