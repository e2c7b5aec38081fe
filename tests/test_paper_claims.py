"""The paper's qualitative claims, checked on laptop-scale runs.

Hérault et al. (IPDPS 2018) compare I/O strategies by the shape of their
curves: blocking Fixed checkpointing saturates a constrained file system,
the cooperative strategies come close to the Theorem-1 lower bound, more
bandwidth and more reliable nodes never hurt, and cooperation cuts the
bandwidth a prospective system needs.  These tests state each claim at a
reduced scale (fewer sweep points, days instead of weeks, one or two
repetitions) with fixed seeds and margins for that scale's noise.  Each
sweep runs once per module.  Run just these with
``PYTHONPATH=src python -m pytest -m paper -q tests/test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.core.lower_bound import platform_lower_bound
from repro.experiments.ablation import fixed_period_ablation, interference_model_ablation
from repro.experiments.figure1 import Figure1Config, run_figure1
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.figure3 import Figure3Config, run_figure3
from repro.experiments.report import point_bound
from repro.experiments.table1 import render_table1
from repro.experiments.theory import steady_state_classes, theoretical_waste
from repro.scenarios.runner import CampaignResult
from repro.workloads.apex import apex_workload
from repro.workloads.cielo import CIELO, cielo_platform

pytestmark = pytest.mark.paper


# ------------------------------------------------------------------ Figure 1
@pytest.fixture(scope="module")
def figure1():
    """Waste against bandwidth on Cielo at 40 and 160 GB/s (2-year node MTBF)."""
    result = run_figure1(Figure1Config(
        bandwidths_gbs=(40.0, 160.0), node_mtbf_years=2.0, horizon_days=3.0,
        warmup_days=0.5, cooldown_days=0.5, num_runs=2, base_seed=7,
    ))
    low = {s: result.outcomes[0].summaries[s].mean for s in result.strategies}
    high = {s: result.outcomes[-1].summaries[s].mean for s in result.strategies}
    return result, low, high


def test_figure1_blocking_fixed_strategies_saturate_at_40_gbs(figure1):
    _, low, _ = figure1
    assert low["oblivious-fixed"] > 0.55
    assert low["ordered-fixed"] > 0.55


def test_figure1_cooperative_strategies_approach_the_bound(figure1):
    result, low, _ = figure1
    bound = point_bound(result.outcomes[0])
    assert low["least-waste"] <= bound + 0.12
    assert low["orderednb-daly"] <= bound + 0.12
    assert low["least-waste"] < 0.5 * low["oblivious-fixed"]


def test_figure1_more_bandwidth_never_hurts(figure1):
    result, low, high = figure1
    for strategy in result.strategies:
        assert high[strategy] <= low[strategy] + 0.05, strategy


def test_figure1_single_point_is_a_ratio():
    result = run_figure1(Figure1Config(
        bandwidths_gbs=(80.0,), horizon_days=2.0, warmup_days=0.5,
        cooldown_days=0.5, num_runs=1, base_seed=3,
    ))
    (outcome,) = result.outcomes
    for strategy in result.strategies:
        assert 0.0 <= outcome.summaries[strategy].mean <= 1.0, strategy


# ------------------------------------------------------------------ Figure 2
@pytest.fixture(scope="module")
def figure2():
    """Waste against node MTBF (2 and 20 years) on Cielo at 40 GB/s."""
    result = run_figure2(Figure2Config(
        node_mtbf_years=(2.0, 20.0), bandwidth_gbs=40.0, horizon_days=3.0,
        warmup_days=0.5, cooldown_days=0.5, num_runs=2, base_seed=11,
    ))
    return result


def test_figure2_blocking_fixed_strategies_stay_expensive_when_failures_are_rare(figure2):
    # Their cost is checkpoint I/O pressure, not failures.
    rare = figure2.outcomes[-1].summaries
    assert rare["oblivious-fixed"].mean > 0.35
    assert rare["ordered-fixed"].mean > 0.35


def test_figure2_cooperative_daly_strategies_approach_the_bound(figure2):
    rare = figure2.outcomes[-1]
    for strategy in ("least-waste", "orderednb-daly"):
        assert rare.summaries[strategy].mean <= point_bound(rare) + 0.10, strategy


def test_figure2_reliability_never_hurts(figure2):
    frequent, rare = figure2.outcomes[0].summaries, figure2.outcomes[-1].summaries
    for strategy in figure2.strategies:
        assert rare[strategy].mean <= frequent[strategy].mean + 0.05, strategy


def test_figure2_reliable_nodes_keep_cooperative_waste_under_a_fifth():
    result = run_figure2(Figure2Config(
        node_mtbf_years=(50.0,), bandwidth_gbs=40.0, horizon_days=2.0,
        warmup_days=0.5, cooldown_days=0.5, num_runs=1, base_seed=5,
    ))
    (outcome,) = result.outcomes
    assert outcome.summaries["least-waste"].mean < 0.2
    assert outcome.summaries["orderednb-daly"].mean < 0.2


# ------------------------------------------------------------------ Figure 3
def test_figure3_cooperation_cuts_the_bandwidth_needed_for_80_percent_efficiency():
    result = run_figure3(Figure3Config(
        node_mtbf_years=(15.0,),
        strategies=("oblivious-fixed", "ordered-daly", "orderednb-daly", "least-waste"),
        horizon_days=2.0, warmup_days=0.25, cooldown_days=0.25, num_runs=1,
        base_seed=13, search_lo_tbs=0.2, search_hi_tbs=60.0, search_iterations=5,
    ))
    naive = result.min_bandwidth_tbs["oblivious-fixed"][0]
    coop = result.min_bandwidth_tbs["least-waste"][0]
    ordered_nb = result.min_bandwidth_tbs["orderednb-daly"][0]
    assert naive >= 2.0 * coop
    assert ordered_nb <= 2.0 * coop and coop <= 2.0 * ordered_nb
    # Nothing beats the model by more than the search resolution.
    assert coop >= 0.5 * result.theory_tbs[0]


def test_figure3_model_sizes_every_mtbf():
    result = run_figure3(
        Figure3Config(node_mtbf_years=(5.0, 15.0, 25.0), strategies=(), search_iterations=5)
    )
    assert result.theory_tbs[-1] > 0.0


# ----------------------------------------------------------------- ablations
_ABLATION_PLATFORM = cielo_platform(bandwidth_gbs=60.0, node_mtbf_years=2.0)
_ABLATION_WORKLOAD = tuple(apex_workload(_ABLATION_PLATFORM))


def _row_means(result: CampaignResult) -> list[float]:
    """Mean waste of each row (one one-strategy scenario per row)."""
    return [summary.mean for o in result.outcomes for summary in o.summaries.values()]


def test_half_hour_fixed_period_is_the_worst_of_three():
    result = fixed_period_ablation(
        _ABLATION_PLATFORM, _ABLATION_WORKLOAD, strategy="ordered-fixed",
        periods_hours=(0.5, 1.0, 2.0), horizon_days=2.0, num_runs=1, base_seed=0,
    )
    half_hour, one_hour, two_hours = _row_means(result)
    assert half_hour >= one_hour - 0.02
    assert half_hour >= two_hours - 0.02


def test_degrading_interference_hurts_oblivious_and_spares_least_waste():
    def linear_and_degrading(strategy: str) -> list[float]:
        return _row_means(interference_model_ablation(
            _ABLATION_PLATFORM, _ABLATION_WORKLOAD, strategy=strategy,
            alphas=(0.0, 1.0), horizon_days=2.0, num_runs=1, base_seed=1,
        ))

    linear, degrading = linear_and_degrading("oblivious-daly")
    assert degrading >= linear - 1e-9
    linear, degrading = linear_and_degrading("least-waste")
    assert abs(degrading - linear) < 0.02


# ------------------------------------------------- Theorem 1 and Table 1
def _cielo_bound(bandwidth_gbs: float):
    platform = cielo_platform(bandwidth_gbs=bandwidth_gbs)
    classes = steady_state_classes(apex_workload(platform), platform)
    return platform_lower_bound(classes, float(platform.num_nodes), platform.node_mtbf_s)


def test_lower_bound_needs_no_multiplier_at_160_gbs():
    result = _cielo_bound(160.0)
    assert not result.constrained
    assert result.lam == 0.0


def test_constrained_lower_bound_meets_the_io_constraint_with_longer_periods():
    result = _cielo_bound(10.0)
    assert result.constrained
    assert result.io_pressure <= 1.0 + 1e-9
    for period, daly in zip(result.periods, result.daly_periods):
        assert period >= daly - 1e-9


def test_lower_bound_never_increases_with_bandwidth():
    curve = []
    for bandwidth in (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0):
        platform = cielo_platform(bandwidth_gbs=bandwidth)
        curve.append(theoretical_waste(apex_workload(platform), platform).waste_fraction)
    assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:])), curve


def test_table1_has_four_classes_and_both_row_labels():
    assert len(apex_workload(CIELO)) == 4
    text = render_table1(CIELO)
    assert "Workload percentage" in text
    assert "Checkpoint Size (% of memory)" in text
