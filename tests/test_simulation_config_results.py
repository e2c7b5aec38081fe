"""Simulation configuration and result records."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.simulation.accounting import Accounting, Category
from repro.simulation.config import MAX_EXPECTED_FAILURES, SimulationConfig
from repro.simulation.results import SimulationResult, WasteBreakdown
from repro.units import DAY, HOUR, YEAR


# ------------------------------------------------------------------- config
def test_config_defaults_and_window(tiny_config):
    config = tiny_config()
    assert config.strategy == "least-waste"
    start, end = config.measurement_window
    assert start == pytest.approx(2 * HOUR)
    assert end == pytest.approx(config.horizon_s - 2 * HOUR)


def test_config_caps_warmup_and_cooldown(tiny_config):
    config = tiny_config(horizon_s=1 * DAY, warmup_s=2 * DAY, cooldown_s=3 * DAY)
    assert config.effective_warmup_s == pytest.approx(0.25 * DAY)
    assert config.effective_cooldown_s == pytest.approx(0.25 * DAY)
    start, end = config.measurement_window
    assert start < end


def test_config_validation(tiny_platform, tiny_classes, tiny_config):
    with pytest.raises(ConfigurationError):
        tiny_config(strategy="bogus")
    with pytest.raises(ConfigurationError):
        tiny_config(horizon_s=0.0)
    with pytest.raises(ConfigurationError):
        tiny_config(warmup_s=-1.0)
    with pytest.raises(ConfigurationError):
        tiny_config(fixed_period_s=0.0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(platform=tiny_platform, classes=())
    # A class larger than the platform is rejected up front.
    big = tiny_classes[0]
    small_platform = tiny_platform.with_num_nodes(big.nodes - 1)
    with pytest.raises(ConfigurationError):
        SimulationConfig(platform=small_platform, classes=(big,))


@pytest.mark.parametrize("name", ["horizon_s", "warmup_s", "cooldown_s", "fixed_period_s"])
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="huge-int")]
)
def test_config_rejects_non_finite_durations(tiny_config, name, value):
    with pytest.raises(ConfigurationError, match=name):
        tiny_config(**{name: value})


def test_config_refuses_a_run_expecting_too_many_failures(tiny_config, tiny_platform):
    # Expected failures = horizon / system MTBF.  The trace is drawn up
    # front, so an unbounded count fails or exhausts memory before any event.
    with pytest.raises(ConfigurationError, match=rf"failures .*{MAX_EXPECTED_FAILURES}"):
        tiny_config(platform=replace(tiny_platform, node_mtbf_s=1e-300 * YEAR))
    # Built, never simulated: 16 nodes over one day at these node MTBFs.
    per_failure_s = tiny_config().horizon_s * tiny_platform.num_nodes / MAX_EXPECTED_FAILURES
    tiny_config(platform=replace(tiny_platform, node_mtbf_s=2.0 * per_failure_s))
    with pytest.raises(ConfigurationError):
        tiny_config(platform=replace(tiny_platform, node_mtbf_s=0.5 * per_failure_s))


def test_config_variants(tiny_config, tiny_platform):
    config = tiny_config()
    assert config.with_seed(99).seed == 99
    spec = config.workload_spec()
    assert spec.min_duration_s == config.horizon_s
    assert spec.classes == config.classes


# ------------------------------------------------------------------ results
def make_breakdown(**overrides) -> WasteBreakdown:
    values = dict(
        compute=700.0,
        base_io=100.0,
        io_delay=40.0,
        checkpoint=100.0,
        checkpoint_wait=20.0,
        recovery=30.0,
        lost_work=10.0,
        allocated=1000.0,
    )
    values.update(overrides)
    return WasteBreakdown(**values)


def test_breakdown_totals_and_ratios():
    b = make_breakdown()
    assert b.useful == pytest.approx(800.0)
    assert b.waste == pytest.approx(200.0)
    assert b.waste_ratio == pytest.approx(0.2)
    assert b.efficiency == pytest.approx(0.8)


def test_breakdown_degenerate_cases():
    empty = make_breakdown(
        compute=0.0, base_io=0.0, io_delay=0.0, checkpoint=0.0,
        checkpoint_wait=0.0, recovery=0.0, lost_work=0.0, allocated=0.0,
    )
    assert empty.waste_ratio == 0.0
    assert empty.efficiency == 1.0
    pure_waste = make_breakdown(compute=0.0, base_io=0.0)
    assert pure_waste.waste_ratio == pytest.approx(1.0)


def test_breakdown_from_accounting_round_trip():
    accounting = Accounting(0.0, 100.0)
    accounting.record_interval(Category.COMPUTE, 2.0, 0.0, 50.0)
    accounting.record_interval(Category.CHECKPOINT, 1.0, 0.0, 30.0)
    accounting.record_allocation(2.0, 0.0, 100.0)
    breakdown = WasteBreakdown.from_accounting(accounting)
    assert breakdown.compute == pytest.approx(100.0)
    assert breakdown.checkpoint == pytest.approx(30.0)
    assert breakdown.allocated == pytest.approx(200.0)


def test_result_summary_mentions_key_fields():
    result = SimulationResult(
        strategy="least-waste",
        breakdown=make_breakdown(),
        horizon_s=86400.0,
        window=(3600.0, 82800.0),
        jobs_submitted=10,
        jobs_completed=8,
        jobs_failed=2,
        restarts_submitted=2,
        failures_total=3,
        failures_effective=2,
        checkpoints_completed=42,
        checkpoints_requested=45,
        node_utilization=0.99,
        io_busy_fraction=0.5,
        events_fired=1234,
    )
    assert result.waste_ratio == pytest.approx(0.2)
    assert result.efficiency == pytest.approx(0.8)
    text = result.summary()
    assert "least-waste" in text
    assert "waste ratio" in text
    assert "checkpoint" in text
    assert "8/10" in text
