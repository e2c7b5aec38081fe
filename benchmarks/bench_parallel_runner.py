"""Parallel-runner bench: serial vs. process-pool speedup and cache hits.

Two measurements on a Figure-1-style scenario (Cielo + APEX workload at a
constrained 80 GB/s, Least-Waste strategy), run by the campaign engine:

* serial execution vs. a 4-worker process pool over the same derived seeds —
  asserts a >1.5x wall-clock speedup when the machine has at least 4 CPUs
  (on smaller machines the speedup is printed but not asserted);
* cache-hit throughput — a second pass over a warmed on-disk cache must
  touch zero simulations and replay thousands of results per second.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_runner.py -q -s
"""

from __future__ import annotations

import os
import time

import pytest

from repro.exec import ParallelRunner
from repro.scenarios.runner import run_scenarios
from repro.scenarios.spec import Scenario
from repro.stats.summary import DistributionSummary
from repro.store import FilesystemStore
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

#: Workers used by the parallel leg (the acceptance configuration).
WORKERS = 4


def _figure1_cell(num_runs: int) -> Scenario:
    """One Figure-1 cell: Cielo at 80 GB/s, 2-year node MTBF, Least-Waste."""
    platform = cielo_platform(bandwidth_gbs=80.0, node_mtbf_years=2.0)
    return Scenario(
        name="figure1-cell",
        platform=platform,
        workload=tuple(apex_workload(platform)),
        strategies=("least-waste",),
        horizon_days=6.0,
        warmup_days=1.0,
        cooldown_days=1.0,
        num_runs=num_runs,
        base_seed=7,
    )


def run_cell(cell: Scenario, runner: ParallelRunner | None = None) -> DistributionSummary:
    """Waste-ratio summary of the cell's only strategy."""
    (outcome,) = run_scenarios([cell], runner)
    return outcome.summaries["least-waste"]


def test_bench_parallel_speedup(benchmark):
    """Serial vs. 4-worker process pool on one Figure-1-style cell."""
    cell = _figure1_cell(num_runs=16)

    start = time.perf_counter()
    serial_summary = run_cell(cell)
    serial_s = time.perf_counter() - start

    parallel_runner = ParallelRunner(backend="process", workers=WORKERS)
    parallel_summary = benchmark.pedantic(
        run_cell, args=(cell,), kwargs={"runner": parallel_runner}, rounds=1, iterations=1
    )
    parallel_s = benchmark.stats.stats.mean

    # Parallel dispatch must not change a single bit of the result.
    assert parallel_summary == serial_summary

    speedup = serial_s / parallel_s
    print()
    print(
        f"serial {serial_s:.2f}s vs {WORKERS} workers {parallel_s:.2f}s "
        f"-> speedup {speedup:.2f}x on {os.cpu_count()} CPUs"
    )
    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup > 1.5
    else:
        pytest.skip(f"only {os.cpu_count()} CPUs: speedup {speedup:.2f}x reported, not asserted")


def test_bench_cache_hit_throughput(benchmark, tmp_path):
    """Replaying a warmed cache touches zero simulations."""
    cell = _figure1_cell(num_runs=16)
    warm = ParallelRunner(cache=FilesystemStore(tmp_path))
    warm_summary = run_cell(cell, runner=warm)
    assert warm.stats.tasks_run == cell.num_runs

    cached_runner = ParallelRunner(cache=FilesystemStore(tmp_path))
    cached_summary = benchmark.pedantic(
        run_cell, args=(cell,), kwargs={"runner": cached_runner}, rounds=1, iterations=1
    )
    replay_s = benchmark.stats.stats.mean

    assert cached_summary == warm_summary
    assert cached_runner.stats.tasks_run == 0  # the cache absorbed every seed
    assert cached_runner.stats.cache_hits == cell.num_runs
    print()
    print(f"cache replay: {cell.num_runs / replay_s:,.0f} results/s ({replay_s * 1e3:.1f} ms total)")
