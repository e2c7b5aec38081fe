"""Ablation benches: fixed-period sensitivity and interference-model impact.

These back the design-choice discussion in DESIGN.md §5: how much of the
Fixed strategies' loss comes from the specific one-hour choice, and how the
linear-interference assumption affects the Oblivious results.
"""

from __future__ import annotations

from repro.experiments.ablation import (
    fixed_period_ablation,
    interference_model_ablation,
    render_ablation,
)
from repro.scenarios.runner import CampaignResult
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import cielo_platform

_PLATFORM = cielo_platform(bandwidth_gbs=60.0, node_mtbf_years=2.0)
_WORKLOAD = tuple(apex_workload(_PLATFORM))


def _means(result: CampaignResult) -> list[float]:
    """Mean waste of each row (one one-strategy scenario per row)."""
    return [summary.mean for o in result.outcomes for summary in o.summaries.values()]


def test_bench_fixed_period_ablation(benchmark):
    """Sensitivity of Ordered-Fixed to the fixed checkpoint period."""

    def run():
        return fixed_period_ablation(
            _PLATFORM,
            _WORKLOAD,
            strategy="ordered-fixed",
            periods_hours=(0.5, 1.0, 2.0),
            horizon_days=2.0,
            num_runs=1,
            base_seed=0,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_ablation("Fixed-period ablation (Cielo, 60 GB/s, 2-year node MTBF)", result))
    # Checkpointing twice as often as the default hour is never better on
    # this failure rate, and the half-hour period is the worst of the three.
    half_hour, one_hour, two_hours = _means(result)
    assert half_hour >= one_hour - 0.02
    assert half_hour >= two_hours - 0.02


def test_bench_interference_model_ablation(benchmark):
    """Adversarial interference hurts Oblivious, leaves Least-Waste untouched."""

    def run():
        oblivious = interference_model_ablation(
            _PLATFORM,
            _WORKLOAD,
            strategy="oblivious-daly",
            alphas=(0.0, 1.0),
            horizon_days=2.0,
            num_runs=1,
            base_seed=1,
        )
        cooperative = interference_model_ablation(
            _PLATFORM,
            _WORKLOAD,
            strategy="least-waste",
            alphas=(0.0, 1.0),
            horizon_days=2.0,
            num_runs=1,
            base_seed=1,
        )
        return oblivious, cooperative

    oblivious, cooperative = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_ablation("Interference ablation — oblivious-daly", oblivious))
    print(render_ablation("Interference ablation — least-waste", cooperative))
    linear, degrading = _means(oblivious)
    # Oblivious suffers under the adversarial model...
    assert degrading >= linear - 1e-9
    # ...while the serialized cooperative strategy is essentially unaffected.
    linear, degrading = _means(cooperative)
    assert abs(degrading - linear) < 0.02
