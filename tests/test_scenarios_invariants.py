"""Property-based accounting invariants over arbitrary scenario configs.

For *any* scenario a campaign can produce — random bandwidth, MTBF,
failure-model shape, horizon, strategy and seed — a simulated
:class:`SimulationResult` must satisfy the accounting contract: every
category is non-negative, the categories sum exactly to the measured
node-seconds (useful + waste), that total never exceeds the allocated
node-seconds, and all waste/efficiency fractions lie in [0, 1].
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.app_class import ApplicationClass
from repro.platform.failures import FailureModel
from repro.platform.spec import PlatformSpec
from repro.scenarios.runner import drill_down, run_scenarios
from repro.scenarios.spec import Scenario
from repro.simulation.simulator import Simulation
from repro.units import DAY, GB, HOUR

# One shared toy machine shape; the axes below override its knobs.
_PLATFORM = PlatformSpec(
    name="prop",
    num_nodes=24,
    cores_per_node=4,
    memory_per_node_bytes=8.0 * GB,
    io_bandwidth_bytes_per_s=1.0 * GB,
    node_mtbf_s=30.0 * DAY,
)

_WORKLOAD = (
    ApplicationClass(
        name="big",
        nodes=8,
        work_s=3.0 * HOUR,
        input_bytes=4.0 * GB,
        output_bytes=8.0 * GB,
        checkpoint_bytes=16.0 * GB,
        workload_share=0.7,
    ),
    ApplicationClass(
        name="small",
        nodes=3,
        work_s=1.0 * HOUR,
        input_bytes=1.0 * GB,
        output_bytes=2.0 * GB,
        checkpoint_bytes=4.0 * GB,
        workload_share=0.3,
    ),
)

failure_models = st.one_of(
    st.just(FailureModel()),
    st.floats(min_value=0.4, max_value=3.0).map(
        lambda k: FailureModel(kind="weibull", shape=round(k, 2))
    ),
)

scenarios = st.builds(
    lambda bandwidth, mtbf_days, horizon_h, strategy, model, seed: Scenario(
        name="prop",
        platform=_PLATFORM.with_bandwidth(bandwidth * GB).with_node_mtbf(mtbf_days * DAY),
        workload=_WORKLOAD,
        strategies=(strategy,),
        failure_model=model,
        num_runs=1,
        base_seed=seed,
        horizon_days=horizon_h / 24.0,
        warmup_days=horizon_h / 240.0,
        cooldown_days=horizon_h / 240.0,
    ),
    bandwidth=st.floats(min_value=0.1, max_value=8.0),
    mtbf_days=st.floats(min_value=2.0, max_value=200.0),
    horizon_h=st.floats(min_value=6.0, max_value=30.0),
    strategy=st.sampled_from(
        ["oblivious-fixed", "oblivious-daly", "ordered-daly", "orderednb-fixed", "least-waste"]
    ),
    model=failure_models,
    seed=st.integers(min_value=0, max_value=2**31),
)


def _check_result(result) -> None:
    b = result.breakdown
    categories = {
        "compute": b.compute,
        "base_io": b.base_io,
        "io_delay": b.io_delay,
        "checkpoint": b.checkpoint,
        "checkpoint_wait": b.checkpoint_wait,
        "recovery": b.recovery,
        "lost_work": b.lost_work,
    }
    # Every accounting category is (numerically) non-negative.
    for name, value in categories.items():
        assert value >= -1e-6, f"category {name} is negative: {value}"
    # Categories sum exactly to the measured node-seconds (useful + waste)...
    total = sum(categories.values())
    assert total == pytest.approx(b.useful + b.waste, rel=1e-9, abs=1e-6)
    # ...which never exceed what was actually allocated.
    assert b.useful + b.waste <= b.allocated + 1e-6
    # All reported fractions are well-formed.
    assert 0.0 <= result.waste_ratio <= 1.0
    assert 0.0 <= result.efficiency <= 1.0
    assert result.waste_ratio == pytest.approx(1.0 - result.efficiency, abs=1e-12)
    assert b.useful <= 0.0 or b.waste / b.useful >= 0.0
    assert result.node_utilization >= 0.0


@settings(max_examples=15, deadline=None)
@given(scenario=scenarios)
def test_any_scenario_config_satisfies_the_accounting_contract(scenario):
    for config in scenario.configs():
        _check_result(Simulation(config).run())


@settings(max_examples=8, deadline=None)
@given(scenario=scenarios)
def test_campaign_summaries_stay_inside_the_unit_interval(scenario):
    (outcome,) = run_scenarios([scenario])
    for summary in outcome.summaries.values():
        assert 0.0 <= summary.minimum <= summary.mean <= summary.maximum <= 1.0


@settings(max_examples=10, deadline=None)
@given(scenario=scenarios)
def test_detail_run_is_reproducible_for_any_scenario(scenario):
    strategy = scenario.strategies[0]
    a = drill_down(scenario, strategy)
    b = drill_down(scenario, strategy)
    assert a == b  # frozen dataclasses: exact, field-by-field equality
