"""Simulator micro/meso benchmarks, strategy ablation and the node-pool cell.

These benches time the substrate itself (the discrete-event engine and the
shared-bandwidth I/O model) and one full simulation run per strategy, which
doubles as the ablation study called out in DESIGN.md: blocking vs.
non-blocking waits, Fixed vs. Daly periods, FCFS vs. least-waste token
granting all appear as separately-timed (and separately-checked) cells.

The *benched cell* times the per-seed end-to-end hot path on the
prospective 50 000-node platform of §6.2.  It fires few events per seed, so
it mostly measures node-pool allocation and release; it is a node-pool
micro-benchmark, not a representative campaign.  Running this module
directly re-measures the cell (median of 5 repeats) and rewrites the
committed baseline, refusing to if the simulated waste ratios moved::

    PYTHONPATH=src python benchmarks/bench_simulator.py --json benchmarks/BENCH_simulator.json
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import pytest

from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation
from repro.units import DAY, GB
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform
from repro.workloads.prospective import prospective_platform, prospective_workload
from repro.iosched.registry import STRATEGIES

#: The benched cell: one §6.2 prospective scenario (50 000 nodes, 1 TB/s)
#: under least-waste, 8 seeds end to end.
BENCHED_CELL = {
    "platform": "prospective",
    "bandwidth_tbs": 1.0,
    "strategy": "least-waste",
    "horizon_days": 2.0,
    "warmup_days": 0.5,
    "cooldown_days": 0.5,
    "seeds": list(range(8)),
}


#: The committed baseline; its waste ratios pin the cell's results.
BASELINE = Path(__file__).with_name("BENCH_simulator.json")

#: Timed repeats of the whole cell behind the reported median.
REPEATS = 5


def _cpu_model() -> str:
    """The host's CPU model name, as far as the platform reports it."""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def benched_cell_config(seed: int) -> SimulationConfig:
    """One seed of the benched cell."""
    platform = prospective_platform(bandwidth_tbs=BENCHED_CELL["bandwidth_tbs"])
    return SimulationConfig(
        platform=platform,
        classes=tuple(prospective_workload(platform)),
        strategy=BENCHED_CELL["strategy"],
        horizon_s=BENCHED_CELL["horizon_days"] * DAY,
        warmup_s=BENCHED_CELL["warmup_days"] * DAY,
        cooldown_s=BENCHED_CELL["cooldown_days"] * DAY,
        seed=seed,
    )


def run_benched_cell() -> tuple[float, list[float]]:
    """Run every seed of the benched cell; (seconds per seed, waste ratios)."""
    seeds = BENCHED_CELL["seeds"]
    wastes = []
    start = time.perf_counter()
    for seed in seeds:
        wastes.append(Simulation(benched_cell_config(seed)).run().waste_ratio)
    return (time.perf_counter() - start) / len(seeds), wastes


def test_bench_engine_event_throughput(benchmark):
    """Raw event throughput of the DES engine (100k chained events)."""

    def run_chain() -> int:
        engine = SimulationEngine()
        count = 0

        def tick() -> None:
            nonlocal count
            count += 1
            if count < 100_000:
                engine.schedule(1.0, tick)

        engine.schedule(0.0, tick)
        engine.run()
        return count

    assert benchmark(run_chain) == 100_000


def test_bench_io_subsystem_fair_share(benchmark):
    """Weighted fair-share transfer completion with heavy churn."""

    def run_transfers() -> int:
        engine = SimulationEngine()
        io = IOSubsystem(engine, bandwidth_bytes_per_s=100.0 * GB)
        completed = []
        for index in range(500):
            engine.schedule_at(
                float(index),
                lambda i=index: io.start(
                    10.0 * GB, weight=float(1 + i % 7), on_complete=completed.append
                ),
            )
        engine.run()
        return len(completed)

    assert benchmark(run_transfers) == 500


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bench_simulation_by_strategy(benchmark, strategy):
    """One short Cielo/APEX simulation per strategy (ablation grid)."""
    platform = cielo_platform(bandwidth_gbs=60.0)
    config = SimulationConfig(
        platform=platform,
        classes=tuple(apex_workload(platform)),
        strategy=strategy,
        horizon_s=2.0 * DAY,
        warmup_s=0.5 * DAY,
        cooldown_s=0.5 * DAY,
        seed=42,
    )

    def run_once():
        return Simulation(config).run()

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert 0.0 <= result.waste_ratio <= 1.0
    assert result.node_utilization > 0.9


def test_bench_per_seed_benched_cell(benchmark):
    """Per-seed end-to-end time of the benched cell (seed 0).

    The simulated waste ratio must equal the committed baseline's exactly.
    """
    config = benched_cell_config(seed=0)
    result = benchmark.pedantic(lambda: Simulation(config).run(), rounds=2, iterations=1)
    committed = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert result.waste_ratio == committed["waste_ratios"][0]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Re-measure the benched-cell baseline")
    parser.add_argument("--json", default=None, help="write the baseline to this path")
    args = parser.parse_args(argv)

    run_benched_cell()  # warm imports and caches before timing
    timings = []
    for _ in range(REPEATS):
        seconds, wastes = run_benched_cell()
        timings.append(seconds)
        print(f"{seconds * 1e3:8.2f} ms/seed")
    committed = json.loads(BASELINE.read_text(encoding="utf-8"))["waste_ratios"]
    if wastes != committed:
        raise SystemExit(
            f"waste ratios {wastes} differ from the committed {committed}: "
            "simulated results changed"
        )
    baseline = {
        "benched_cell": BENCHED_CELL,
        "host": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "repeats": REPEATS,
        "ms_per_seed": {
            "median": round(statistics.median(timings) * 1e3, 2),
            "min": round(min(timings) * 1e3, 2),
            "max": round(max(timings) * 1e3, 2),
        },
        "waste_ratios": wastes,
    }
    print(f"median: {baseline['ms_per_seed']['median']} ms/seed")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"baseline written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
