#!/usr/bin/env python3
"""Run the reference (moderate-scale) experiments: Table 1 and Figures 1-3.

This script regenerates every figure of the paper at a moderate scale
(larger than the benchmark defaults, still far below the paper's 60-day x
1000-run campaigns) and writes the rendered tables under ``--output-dir``
(``results/`` by default).  No record of its output is committed yet:
ROADMAP item 6 plans that record.
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.experiments import figure1, figure2
from repro.experiments.figure1 import Figure1Config, render_figure1, run_figure1
from repro.experiments.figure2 import Figure2Config, render_figure2, run_figure2
from repro.experiments.figure3 import Figure3Config, render_figure3, run_figure3
from repro.experiments.report import render_sweep_detailed, sweep_values
from repro.experiments.table1 import render_table1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--horizon-days", type=float, default=8.0)
    parser.add_argument("--num-runs", type=int, default=5)
    parser.add_argument("--figure3-num-runs", type=int, default=2)
    parser.add_argument("--figure3-horizon-days", type=float, default=4.0)
    args = parser.parse_args()

    out = pathlib.Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def save(name: str, text: str) -> None:
        (out / name).write_text(text + "\n")
        print(f"[{time.strftime('%H:%M:%S')}] wrote {out / name}", flush=True)

    save("table1.txt", render_table1())

    t0 = time.time()
    config1 = Figure1Config(
        bandwidths_gbs=(40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0),
        horizon_days=args.horizon_days,
        num_runs=args.num_runs,
        base_seed=2024,
    )
    fig1 = run_figure1(config1)
    values1 = sweep_values(config1.campaign())
    save(
        "figure1.txt",
        render_figure1(fig1, values1)
        + f"\n\n(horizon {args.horizon_days} days, {args.num_runs} runs/point, "
        + f"{time.time() - t0:.0f}s)\n\n"
        + render_sweep_detailed(
            fig1, figure1.PARAMETER, values1, title="Figure 1 candlesticks"
        ),
    )

    t0 = time.time()
    config2 = Figure2Config(
        node_mtbf_years=(2.0, 5.0, 10.0, 20.0, 50.0),
        bandwidth_gbs=40.0,
        horizon_days=args.horizon_days,
        num_runs=args.num_runs,
        base_seed=2024,
    )
    fig2 = run_figure2(config2)
    values2 = sweep_values(config2.campaign())
    save(
        "figure2.txt",
        render_figure2(fig2, values2)
        + f"\n\n(horizon {args.horizon_days} days, {args.num_runs} runs/point, "
        + f"{time.time() - t0:.0f}s)\n\n"
        + render_sweep_detailed(
            fig2, figure2.PARAMETER, values2, title="Figure 2 candlesticks"
        ),
    )

    t0 = time.time()
    fig3 = run_figure3(
        Figure3Config(
            node_mtbf_years=(5.0, 15.0, 25.0),
            horizon_days=args.figure3_horizon_days,
            warmup_days=0.5,
            cooldown_days=0.5,
            num_runs=args.figure3_num_runs,
            base_seed=2024,
            search_iterations=6,
        )
    )
    save(
        "figure3.txt",
        render_figure3(fig3)
        + f"\n\n(horizon {args.figure3_horizon_days} days, {args.figure3_num_runs} runs/probe, "
        + f"{time.time() - t0:.0f}s)",
    )
    print("done", flush=True)


if __name__ == "__main__":
    main()
